"""Numpy-based neural-network substrate used by the reproduction.

The public surface mirrors a very small subset of PyTorch so the model code
in :mod:`repro.encoders`, :mod:`repro.core` and :mod:`repro.baselines` reads
like the original implementations.
"""

from . import backend, functional, init
from .backend import Workspace
from .layers import (
    Conv1d,
    Dropout,
    Embedding,
    LayerNorm,
    Linear,
    ReLU,
    Sigmoid,
    Tanh,
)
from .module import Module, ModuleList, Parameter, Sequential
from .optim import SGD, Adagrad, Adam, LinearDecayLR, LRScheduler, Optimizer, StepLR
from .recurrent import BiGRU, GRU, GRUCell
from .tensor import (
    Tensor,
    concatenate,
    default_dtype,
    get_default_dtype,
    is_grad_enabled,
    no_grad,
    ones,
    set_default_dtype,
    stack,
    tensor,
    where,
    zeros,
)

__all__ = [
    "functional",
    "init",
    "backend",
    "Workspace",
    "default_dtype",
    "no_grad",
    "is_grad_enabled",
    "Tensor",
    "tensor",
    "zeros",
    "ones",
    "concatenate",
    "stack",
    "where",
    "set_default_dtype",
    "get_default_dtype",
    "Module",
    "ModuleList",
    "Sequential",
    "Parameter",
    "Linear",
    "Embedding",
    "Conv1d",
    "Dropout",
    "Tanh",
    "ReLU",
    "Sigmoid",
    "LayerNorm",
    "GRUCell",
    "GRU",
    "BiGRU",
    "Optimizer",
    "SGD",
    "Adam",
    "Adagrad",
    "LRScheduler",
    "StepLR",
    "LinearDecayLR",
]
