"""Columnar ragged container for an entire encoded corpus.

The seed-era encoded corpus was a ``List[EncodedBag]``: one Python object per
bag, each holding its own small padded matrices.  Every epoch then re-padded
those objects into merged batches, and the artifact cache wrote one npz key
set per bag.  :class:`CorpusStore` replaces that with the corpus analogue of
the array-native proximity graph (:mod:`repro.graph.proximity`): the whole
corpus lives in a handful of flat, contiguous arrays with CSR-style offset
indices —

* token-level columns ``token_ids`` / ``head_position_ids`` /
  ``tail_position_ids`` / ``segment_ids`` (one entry per real token, no
  padding anywhere), indexed by ``sentence_offsets``;
* ``bag_offsets`` grouping sentences into bags, plus per-bag columns
  ``bag_widths`` (the per-bag pad width the legacy encoder used), ``labels``,
  ``head_entity_ids`` / ``tail_entity_ids``, and ragged ``relation_ids`` /
  type-id columns with their own offsets.

Batches are assembled by *slicing offsets* (:func:`repro.batch.merging.merge_store_batch`)
instead of re-padding object lists.  Two on-disk layouts persist a store:

* **format v3** (the default, :meth:`save` to any non-``.npz`` path): a
  directory of raw, uncompressed per-column ``.npy`` shards plus a JSON
  manifest recording each shard's row range, dtype and sha256.  This is the
  out-of-core layout — ``load(mmap=True)`` opens every shard with
  ``np.load(..., mmap_mode="r")`` and stitches multi-shard columns behind
  the same zero-copy view API, so training and serving touch only the pages
  a batch actually reads;
* **format v2** (:meth:`save` to a ``*.npz`` path): the single-file columnar
  npz, kept as a one-file artifact (what an ingest version publishes).  An
  npz can NOT be memmapped — its members live inside a zip container, which
  defeats ``np.load``'s ``mmap_mode`` — so ``load`` refuses ``mmap=True`` on
  npz files and points at the v3 shard layout instead.

The per-bag key layout of early releases (one key set per bag) is no
longer read: :meth:`load` rejects it with a :class:`DataError`.

:class:`~repro.corpus.bags.EncodedBag` remains the per-bag API: the store is
a read-only sequence of bags (``store[i]``, iteration, ``len``) whose 1-D
per-bag columns are zero-copy slices of the flat arrays; only the padded 2-D
sentence matrices are materialised on access, exactly as the legacy encoder
produced them.
"""

from __future__ import annotations

import json
import os
import shutil
from dataclasses import dataclass
from pathlib import Path
from typing import Iterator, List, Optional, Sequence, Union

import numpy as np

from ..exceptions import DataError
from ..utils.arrays import concat_ranges, gather_ragged, offsets_from_sizes
from ..utils.serialization import file_sha256, load_npz, save_npz
from .bags import EncodedBag

#: Current on-disk format: the sharded directory layout (manifest.json plus
#: raw per-column ``.npy`` shards), the only layout that supports
#: ``load(mmap=True)``.
CORPUS_STORE_FORMAT = 3

#: The single-file columnar npz layout (written for ``*.npz`` paths); it
#: cannot be memmapped.  An npz without a ``format`` key (such as the per-bag
#: layout of early releases) is rejected.
CORPUS_STORE_NPZ_FORMAT = 2

#: Manifest file name inside a v3 shard directory.
MANIFEST_NAME = "manifest.json"

_TOKEN_COLUMNS = ("token_ids", "head_position_ids", "tail_position_ids", "segment_ids")
_BAG_COLUMNS = ("bag_widths", "labels", "head_entity_ids", "tail_entity_ids")
_RAGGED_COLUMNS = ("relation_ids", "head_type_ids", "tail_type_ids")
_OFFSET_COLUMNS = (
    "sentence_offsets",
    "bag_offsets",
    "relation_offsets",
    "head_type_offsets",
    "tail_type_offsets",
)
#: Every persisted column, in manifest order.
_ALL_COLUMNS = (
    *_TOKEN_COLUMNS,
    *_OFFSET_COLUMNS,
    *_BAG_COLUMNS,
    *_RAGGED_COLUMNS,
)
#: Flat data columns that may span several shards and are stitched lazily
#: (as a :class:`ShardedColumn`) in mmap mode.  Offset and per-bag columns
#: are always written as a single shard — they are tiny and downstream code
#: does arithmetic on them, so multi-shard copies of them are concatenated
#: into RAM on load instead.
_SHARDABLE_COLUMNS = frozenset(_TOKEN_COLUMNS) | frozenset(_RAGGED_COLUMNS)


class ShardedColumn:
    """Read-only 1-D view stitching consecutive column shards.

    ``load(mmap=True)`` of a multi-shard store wraps each flat column's
    memmapped shards in one of these; it quacks enough like an ndarray for
    every consumer in the repo (``shape``/``size``/``len``, integer, slice
    and fancy-index ``__getitem__``, ``np.asarray``).  Indexing returns
    ordinary in-RAM arrays covering just the requested rows, so batch
    assembly over a memmapped store only faults in the pages it touches.
    """

    def __init__(self, shards: Sequence[np.ndarray]) -> None:
        if not shards:
            raise DataError("a ShardedColumn needs at least one shard")
        for shard in shards:
            if shard.ndim != 1:
                raise DataError("ShardedColumn shards must be 1-D")
        self._shards = list(shards)
        self._bounds = offsets_from_sizes([shard.shape[0] for shard in self._shards])
        self.dtype = self._shards[0].dtype

    @property
    def shape(self):
        return (int(self._bounds[-1]),)

    @property
    def size(self) -> int:
        return int(self._bounds[-1])

    @property
    def ndim(self) -> int:
        return 1

    def __len__(self) -> int:
        return self.size

    def chunks(self) -> Sequence[np.ndarray]:
        """The underlying shard arrays, in row order (for chunked consumers)."""
        return tuple(self._shards)

    def __array__(self, dtype=None, copy=None):
        merged = np.concatenate(self._shards)
        return merged.astype(dtype, copy=False) if dtype is not None else merged

    def _gather(self, indices: np.ndarray) -> np.ndarray:
        out = np.empty(indices.shape[0], dtype=self.dtype)
        which = np.searchsorted(self._bounds[1:], indices, side="right")
        for shard_index in np.unique(which):
            mask = which == shard_index
            local = indices[mask] - int(self._bounds[shard_index])
            out[mask] = self._shards[shard_index][local]
        return out

    def __getitem__(self, index):
        total = self.size
        if isinstance(index, (int, np.integer)):
            i = int(index)
            if i < 0:
                i += total
            if not 0 <= i < total:
                raise IndexError(f"index {index} out of range for {total} rows")
            shard_index = int(np.searchsorted(self._bounds[1:], i, side="right"))
            return self._shards[shard_index][i - int(self._bounds[shard_index])]
        if isinstance(index, slice):
            start, stop, step = index.indices(total)
            if step != 1:
                return self._gather(np.arange(start, stop, step, dtype=np.int64))
            if stop <= start:
                return np.empty(0, dtype=self.dtype)
            pieces = []
            for shard_index, shard in enumerate(self._shards):
                lo = max(start, int(self._bounds[shard_index]))
                hi = min(stop, int(self._bounds[shard_index + 1]))
                if lo < hi:
                    base = int(self._bounds[shard_index])
                    pieces.append(np.asarray(shard[lo - base:hi - base]))
            return pieces[0] if len(pieces) == 1 else np.concatenate(pieces)
        indices = np.asarray(index)
        if indices.dtype == bool:
            indices = np.flatnonzero(indices)
        indices = indices.astype(np.int64, copy=False)
        if indices.ndim != 1:
            raise DataError("ShardedColumn only supports 1-D index arrays")
        if indices.size == 0:
            return np.empty(0, dtype=self.dtype)
        indices = np.where(indices < 0, indices + total, indices)
        if int(indices.min()) < 0 or int(indices.max()) >= total:
            raise IndexError(f"indices out of range for {total} rows")
        return self._gather(indices)


@dataclass
class CorpusStore:
    """An encoded corpus as contiguous columnar arrays (see module docstring)."""

    token_ids: np.ndarray          # (total_tokens,) int64
    head_position_ids: np.ndarray  # (total_tokens,) int64
    tail_position_ids: np.ndarray  # (total_tokens,) int64
    segment_ids: np.ndarray        # (total_tokens,) int64
    sentence_offsets: np.ndarray   # (total_sentences + 1,) token offsets
    bag_offsets: np.ndarray        # (num_bags + 1,) sentence offsets
    bag_widths: np.ndarray         # (num_bags,) per-bag pad width
    labels: np.ndarray             # (num_bags,) primary relation ids
    head_entity_ids: np.ndarray    # (num_bags,)
    tail_entity_ids: np.ndarray    # (num_bags,)
    relation_ids: np.ndarray       # flat sorted relation ids per bag
    relation_offsets: np.ndarray   # (num_bags + 1,)
    head_type_ids: np.ndarray      # flat type ids per bag (>= 1 entry each)
    head_type_offsets: np.ndarray  # (num_bags + 1,)
    tail_type_ids: np.ndarray
    tail_type_offsets: np.ndarray

    def __post_init__(self) -> None:
        for offsets, flat, name in (
            (self.sentence_offsets, self.token_ids, "sentence_offsets"),
            (self.bag_offsets, self.sentence_offsets[:-1], "bag_offsets"),
            (self.relation_offsets, self.relation_ids, "relation_offsets"),
            (self.head_type_offsets, self.head_type_ids, "head_type_offsets"),
            (self.tail_type_offsets, self.tail_type_ids, "tail_type_offsets"),
        ):
            if offsets.ndim != 1 or offsets.size == 0 or offsets[0] != 0:
                raise DataError(f"{name} must be 1-D and start at 0")
            if (np.diff(offsets) < 0).any():
                raise DataError(f"{name} must be non-decreasing")
            if int(offsets[-1]) != flat.shape[0]:
                raise DataError(f"{name} does not cover its flat column")
        n = self.num_bags
        for name in _BAG_COLUMNS:
            if getattr(self, name).shape != (n,):
                raise DataError(f"per-bag column {name} must have shape ({n},)")
        for name in ("relation_offsets", "head_type_offsets", "tail_type_offsets"):
            if getattr(self, name).shape != (n + 1,):
                raise DataError(f"{name} must have shape ({n + 1},)")
        if n and int(np.min(self.bag_widths)) < 0:
            raise DataError("bag_widths must be non-negative")

    # ------------------------------------------------------------------ #
    # Shape
    # ------------------------------------------------------------------ #
    @property
    def num_bags(self) -> int:
        return int(self.bag_offsets.size - 1)

    @property
    def num_sentences(self) -> int:
        return int(self.bag_offsets[-1])

    @property
    def num_tokens(self) -> int:
        return int(self.sentence_offsets[-1])

    @property
    def sentence_lengths(self) -> np.ndarray:
        """Per-sentence token counts, shape ``(num_sentences,)``."""
        return np.diff(self.sentence_offsets)

    @property
    def sentence_counts(self) -> np.ndarray:
        """Per-bag sentence counts, shape ``(num_bags,)``."""
        return np.diff(self.bag_offsets)

    def __len__(self) -> int:
        return self.num_bags

    # ------------------------------------------------------------------ #
    # Sequence-of-bags compatibility API
    # ------------------------------------------------------------------ #
    def bag(self, index: int) -> EncodedBag:
        """Materialise bag ``index`` as a legacy :class:`EncodedBag`.

        The padded 2-D sentence matrices are rebuilt on demand (bitwise equal
        to what ``BagEncoder.encode`` produces); the per-bag type-id vectors
        are zero-copy views of the flat columns.
        """
        n = self.num_bags
        if not -n <= index < n:
            raise IndexError(f"bag index {index} out of range for {n} bags")
        if index < 0:
            index += n
        first, last = int(self.bag_offsets[index]), int(self.bag_offsets[index + 1])
        lengths = np.diff(self.sentence_offsets[first:last + 1])
        width = int(self.bag_widths[index])
        token_span = slice(
            int(self.sentence_offsets[first]), int(self.sentence_offsets[last])
        )
        token_ids, head_pos, tail_pos, segments, valid = pad_token_columns(
            self.token_ids[token_span],
            self.head_position_ids[token_span],
            self.tail_position_ids[token_span],
            self.segment_ids[token_span],
            lengths,
            width,
        )
        return EncodedBag(
            token_ids=token_ids,
            head_position_ids=head_pos,
            tail_position_ids=tail_pos,
            segment_ids=segments,
            mask=valid,
            label=int(self.labels[index]),
            relation_ids=tuple(
                int(r)
                for r in self.relation_ids[
                    self.relation_offsets[index]:self.relation_offsets[index + 1]
                ]
            ),
            head_entity_id=int(self.head_entity_ids[index]),
            tail_entity_id=int(self.tail_entity_ids[index]),
            head_type_ids=self.head_type_ids[
                self.head_type_offsets[index]:self.head_type_offsets[index + 1]
            ],
            tail_type_ids=self.tail_type_ids[
                self.tail_type_offsets[index]:self.tail_type_offsets[index + 1]
            ],
        )

    def __getitem__(
        self, index: Union[int, slice, Sequence[int], np.ndarray]
    ) -> Union[EncodedBag, "CorpusStore"]:
        """``store[i]`` is an :class:`EncodedBag`; slices / index arrays are sub-stores."""
        if isinstance(index, (int, np.integer)):
            return self.bag(int(index))
        if isinstance(index, slice):
            return self.select(np.arange(self.num_bags, dtype=np.int64)[index])
        return self.select(np.asarray(index, dtype=np.int64))

    def __iter__(self) -> Iterator[EncodedBag]:
        for index in range(self.num_bags):
            yield self.bag(index)

    def to_encoded_bags(self) -> List[EncodedBag]:
        """The whole corpus as legacy per-bag objects (parity / fallback path)."""
        return [self.bag(index) for index in range(self.num_bags)]

    # ------------------------------------------------------------------ #
    # Columnar slicing
    # ------------------------------------------------------------------ #
    def select(self, indices: np.ndarray) -> "CorpusStore":
        """A compact sub-store holding bags ``indices`` in the given order."""
        indices = np.asarray(indices, dtype=np.int64)
        if indices.size and (indices.min() < 0 or indices.max() >= self.num_bags):
            raise DataError("bag indices out of range")
        counts = self.bag_offsets[indices + 1] - self.bag_offsets[indices]
        sentence_rows = concat_ranges(self.bag_offsets[indices], counts)
        lengths = (
            self.sentence_offsets[sentence_rows + 1]
            - self.sentence_offsets[sentence_rows]
        )
        token_rows = concat_ranges(self.sentence_offsets[sentence_rows], lengths)
        relation_ids, relation_offsets = gather_ragged(
            self.relation_ids, self.relation_offsets, indices
        )
        head_type_ids, head_type_offsets = gather_ragged(
            self.head_type_ids, self.head_type_offsets, indices
        )
        tail_type_ids, tail_type_offsets = gather_ragged(
            self.tail_type_ids, self.tail_type_offsets, indices
        )
        return CorpusStore(
            token_ids=self.token_ids[token_rows],
            head_position_ids=self.head_position_ids[token_rows],
            tail_position_ids=self.tail_position_ids[token_rows],
            segment_ids=self.segment_ids[token_rows],
            sentence_offsets=offsets_from_sizes(lengths),
            bag_offsets=offsets_from_sizes(counts),
            bag_widths=self.bag_widths[indices],
            labels=self.labels[indices],
            head_entity_ids=self.head_entity_ids[indices],
            tail_entity_ids=self.tail_entity_ids[indices],
            relation_ids=relation_ids,
            relation_offsets=relation_offsets,
            head_type_ids=head_type_ids,
            head_type_offsets=head_type_offsets,
            tail_type_ids=tail_type_ids,
            tail_type_offsets=tail_type_offsets,
        )

    # ------------------------------------------------------------------ #
    # Streaming append
    # ------------------------------------------------------------------ #
    def append_store(
        self,
        delta: "CorpusStore",
        vocab_size: Optional[int] = None,
        num_relations: Optional[int] = None,
    ) -> "CorpusStore":
        """A new store holding this store's bags followed by ``delta``'s.

        Pure columnar concatenation with offset re-basing — O(total rows),
        no per-bag work — and the streaming append primitive used by
        :class:`repro.ingest.StreamIngestor`.  Either operand may be a
        memmapped format-v3 store; the result is a fresh in-RAM store (the
        ingestor persists it back to the shard layout per published
        version).  ``vocab_size`` / ``num_relations`` optionally validate
        the delta's token and label ids against the serving vocabulary —
        a delta encoded with a different vocabulary raises
        :class:`DataError`, as does dtype drift in any delta column.
        """
        for name in _ALL_COLUMNS:
            column = np.asarray(getattr(delta, name))
            if column.dtype != np.int64:
                raise DataError(
                    f"delta column {name} has dtype {column.dtype}; "
                    "append_store requires the store's int64 layout"
                )
        if vocab_size is not None and delta.num_tokens:
            tokens = np.asarray(delta.token_ids)
            lowest, highest = int(tokens.min()), int(tokens.max())
            if lowest < 0 or highest >= vocab_size:
                raise DataError(
                    f"delta token ids span [{lowest}, {highest}], outside the "
                    f"serving vocabulary of size {vocab_size}; was the delta "
                    "encoded with a different vocabulary?"
                )
        if num_relations is not None and delta.num_bags:
            labels = np.asarray(delta.labels)
            if int(labels.min()) < 0 or int(labels.max()) >= num_relations:
                raise DataError(
                    f"delta labels span [{int(labels.min())}, {int(labels.max())}], "
                    f"outside the relation schema of size {num_relations}"
                )

        def _stack(name: str) -> np.ndarray:
            return np.concatenate(
                [np.asarray(getattr(self, name)), np.asarray(getattr(delta, name))]
            )

        def _rebase(name: str, shift: int) -> np.ndarray:
            ours = np.asarray(getattr(self, name))
            theirs = np.asarray(getattr(delta, name))
            return np.concatenate([ours, theirs[1:] + np.int64(shift)])

        return CorpusStore(
            token_ids=_stack("token_ids"),
            head_position_ids=_stack("head_position_ids"),
            tail_position_ids=_stack("tail_position_ids"),
            segment_ids=_stack("segment_ids"),
            sentence_offsets=_rebase("sentence_offsets", self.num_tokens),
            bag_offsets=_rebase("bag_offsets", self.num_sentences),
            bag_widths=_stack("bag_widths"),
            labels=_stack("labels"),
            head_entity_ids=_stack("head_entity_ids"),
            tail_entity_ids=_stack("tail_entity_ids"),
            relation_ids=_stack("relation_ids"),
            relation_offsets=_rebase("relation_offsets", int(self.relation_offsets[-1])),
            head_type_ids=_stack("head_type_ids"),
            head_type_offsets=_rebase("head_type_offsets", int(self.head_type_offsets[-1])),
            tail_type_ids=_stack("tail_type_ids"),
            tail_type_offsets=_rebase("tail_type_offsets", int(self.tail_type_offsets[-1])),
        )

    # ------------------------------------------------------------------ #
    # Conversion from the legacy representation
    # ------------------------------------------------------------------ #
    @classmethod
    def from_encoded_bags(cls, bags: Sequence[EncodedBag]) -> "CorpusStore":
        """Build a store from legacy per-bag objects (exact round-trip)."""
        token_columns = {name: [] for name in _TOKEN_COLUMNS}
        sentence_lengths: List[np.ndarray] = []
        counts = np.empty(len(bags), dtype=np.int64)
        widths = np.empty(len(bags), dtype=np.int64)
        labels = np.empty(len(bags), dtype=np.int64)
        heads = np.empty(len(bags), dtype=np.int64)
        tails = np.empty(len(bags), dtype=np.int64)
        relations: List[np.ndarray] = []
        head_types: List[np.ndarray] = []
        tail_types: List[np.ndarray] = []
        for i, bag in enumerate(bags):
            mask = bag.mask
            sentence_lengths.append(mask.sum(axis=1).astype(np.int64))
            token_columns["token_ids"].append(bag.token_ids[mask])
            token_columns["head_position_ids"].append(bag.head_position_ids[mask])
            token_columns["tail_position_ids"].append(bag.tail_position_ids[mask])
            token_columns["segment_ids"].append(bag.segment_ids[mask])
            counts[i] = bag.num_sentences
            widths[i] = bag.max_length
            labels[i] = bag.label
            heads[i] = bag.head_entity_id
            tails[i] = bag.tail_entity_id
            relations.append(np.asarray(bag.relation_ids, dtype=np.int64))
            head_types.append(np.asarray(bag.head_type_ids, dtype=np.int64))
            tail_types.append(np.asarray(bag.tail_type_ids, dtype=np.int64))

        def _flat(parts: List[np.ndarray]) -> np.ndarray:
            return (
                np.concatenate(parts) if parts else np.empty(0, dtype=np.int64)
            ).astype(np.int64, copy=False)

        def _offsets(parts: List[np.ndarray]) -> np.ndarray:
            return offsets_from_sizes([part.size for part in parts])

        lengths = _flat(sentence_lengths)
        return cls(
            token_ids=_flat(token_columns["token_ids"]),
            head_position_ids=_flat(token_columns["head_position_ids"]),
            tail_position_ids=_flat(token_columns["tail_position_ids"]),
            segment_ids=_flat(token_columns["segment_ids"]),
            sentence_offsets=offsets_from_sizes(lengths),
            bag_offsets=offsets_from_sizes(counts),
            bag_widths=widths,
            labels=labels,
            head_entity_ids=heads,
            tail_entity_ids=tails,
            relation_ids=_flat(relations),
            relation_offsets=_offsets(relations),
            head_type_ids=_flat(head_types),
            head_type_offsets=_offsets(head_types),
            tail_type_ids=_flat(tail_types),
            tail_type_offsets=_offsets(tail_types),
        )

    # ------------------------------------------------------------------ #
    # Persistence (shard directory, format v3; columnar npz, format v2)
    # ------------------------------------------------------------------ #
    def save(self, path) -> None:
        """Write the store to disk; the layout follows from the path.

        A ``*.npz`` path writes the single-file columnar npz (format v2, one
        file that cannot be memmapped); any other path becomes a format-v3
        shard directory — raw per-column ``.npy`` shards plus
        ``manifest.json`` — the layout ``load(mmap=True)`` requires.
        """
        path = Path(path)
        if path.suffix == ".npz":
            self._save_npz(path)
        else:
            self.save_sharded(path)

    def _save_npz(self, path) -> None:
        """Write the format-v2 columnar npz (one key per column)."""
        arrays = {"format": np.array([CORPUS_STORE_NPZ_FORMAT], dtype=np.int64)}
        for name in (
            *_TOKEN_COLUMNS,
            "sentence_offsets",
            "bag_offsets",
            *_BAG_COLUMNS,
        ):
            arrays[name] = np.asarray(getattr(self, name))
        for name in _RAGGED_COLUMNS:
            arrays[name] = np.asarray(getattr(self, name))
            arrays[name + "__offsets"] = np.asarray(getattr(self, _offsets_field(name)))
        save_npz(path, arrays)

    def save_sharded(self, path) -> Path:
        """Write the format-v3 shard directory and return its path.

        Every column becomes one or more raw ``.npy`` shard files (an already
        stitched :class:`ShardedColumn` keeps its shard boundaries), and
        ``manifest.json`` records each shard's row range, dtype and sha256.
        The manifest is written last, through a rename, so a directory with a
        readable manifest always has all its shards on disk.
        """
        path = Path(path)
        path.mkdir(parents=True, exist_ok=True)
        columns = {}
        for name in _ALL_COLUMNS:
            value = getattr(self, name)
            chunks = (
                value.chunks() if isinstance(value, ShardedColumn) else (value,)
            )
            shards = []
            row = 0
            for index, chunk in enumerate(chunks):
                data = np.ascontiguousarray(np.asarray(chunk), dtype=np.int64)
                file_name = _shard_file_name(name, index)
                file_path = path / file_name
                np.save(file_path, data)
                shards.append(
                    {
                        "file": file_name,
                        "rows": [row, row + int(data.shape[0])],
                        "sha256": file_sha256(file_path),
                    }
                )
                row += int(data.shape[0])
            columns[name] = {"dtype": "int64", "rows": row, "shards": shards}
        _write_manifest(
            path,
            {
                "format": CORPUS_STORE_FORMAT,
                "num_bags": self.num_bags,
                "columns": columns,
            },
        )
        return path

    @classmethod
    def load(
        cls, path, mmap: bool = False, verify_hashes: bool = False
    ) -> "CorpusStore":
        """Load a store saved by :meth:`save`.

        A directory is read as a format-v3 shard store; ``mmap=True`` opens
        every shard with ``np.load(..., mmap_mode="r")`` so column data stays
        on disk until a batch touches it, and ``verify_hashes=True``
        additionally checks each shard file against the manifest's sha256
        before mapping it.  A ``*.npz`` file is read as the format-v2
        columnar layout; one without a ``format`` key (for example the
        per-bag layout of early releases) raises :class:`DataError`.
        Structural problems (non-monotonic offsets, columns
        inconsistent with their final offsets, negative ``bag_widths``,
        corrupt or missing shards, format drift) raise :class:`DataError`
        naming the offending field.
        """
        path = Path(path)
        if path.is_dir():
            return cls._load_sharded(path, mmap=mmap, verify_hashes=verify_hashes)
        if mmap:
            raise DataError(
                f"{path} is not a shard directory: npz containers cannot be "
                "memmapped (zip members defeat np.load's mmap_mode); re-save "
                "the store to a directory path for the format-v3 shard layout"
            )
        data = load_npz(path)
        if "format" not in data:
            raise DataError(f"{path} is not an encoded-corpus file (no format key)")
        version = int(data["format"][0])
        if version != CORPUS_STORE_NPZ_FORMAT:
            raise DataError(
                f"unsupported corpus-store npz format version {version} "
                f"(this build reads npz version {CORPUS_STORE_NPZ_FORMAT} "
                f"and shard-directory version {CORPUS_STORE_FORMAT})"
            )
        kwargs = {
            name: data[name].astype(np.int64, copy=False)
            for name in (
                *_TOKEN_COLUMNS,
                "sentence_offsets",
                "bag_offsets",
                *_BAG_COLUMNS,
                *_RAGGED_COLUMNS,
            )
        }
        for name in _RAGGED_COLUMNS:
            kwargs[_offsets_field(name)] = data[name + "__offsets"].astype(
                np.int64, copy=False
            )
        return cls(**kwargs)

    @classmethod
    def _load_sharded(
        cls, path: Path, mmap: bool, verify_hashes: bool
    ) -> "CorpusStore":
        """Read a format-v3 shard directory (see :meth:`save_sharded`)."""
        manifest = _read_manifest(path)
        columns = manifest.get("columns")
        if not isinstance(columns, dict):
            raise DataError(f"corpus-store manifest in {path} has no column table")
        kwargs = {}
        for name in _ALL_COLUMNS:
            if name not in columns:
                raise DataError(
                    f"corpus-store manifest in {path} is missing column '{name}'"
                )
            kwargs[name] = _load_column(
                path, name, columns[name], mmap=mmap, verify_hashes=verify_hashes
            )
        store = cls(**kwargs)
        declared = int(manifest.get("num_bags", store.num_bags))
        if declared != store.num_bags:
            raise DataError(
                f"manifest num_bags={declared} does not match bag_offsets "
                f"({store.num_bags} bags) in {path}"
            )
        return store


def _offsets_field(ragged_name: str) -> str:
    """Field name of a ragged column's offsets (``relation_ids`` -> ``relation_offsets``)."""
    return ragged_name.replace("_ids", "_offsets")


# ---------------------------------------------------------------------- #
# Format-v3 shard directory plumbing
# ---------------------------------------------------------------------- #
def _shard_file_name(column: str, index: int) -> str:
    return f"{column}-{index:05d}.npy"


def _write_manifest(path: Path, manifest: dict) -> None:
    """Write ``manifest.json`` atomically (rename), as the last step of a save."""
    tmp = path / (MANIFEST_NAME + f".tmp-{os.getpid()}")
    tmp.write_text(json.dumps(manifest, indent=2, sort_keys=True), encoding="utf-8")
    os.replace(tmp, path / MANIFEST_NAME)


def _read_manifest(path: Path) -> dict:
    manifest_path = path / MANIFEST_NAME
    if not manifest_path.is_file():
        raise DataError(
            f"{path} is not a corpus-store shard directory (no {MANIFEST_NAME})"
        )
    try:
        manifest = json.loads(manifest_path.read_text(encoding="utf-8"))
    except (OSError, ValueError) as error:
        raise DataError(
            f"truncated or corrupt corpus-store manifest {manifest_path}: {error}"
        ) from None
    version = manifest.get("format") if isinstance(manifest, dict) else None
    if version != CORPUS_STORE_FORMAT:
        raise DataError(
            f"unsupported corpus-store shard format version {version!r} in "
            f"{path} (this build reads version {CORPUS_STORE_FORMAT})"
        )
    return manifest


def _load_column(
    directory: Path, name: str, entry: dict, mmap: bool, verify_hashes: bool
):
    """Load one manifest column; multi-shard flat columns stitch lazily in mmap mode."""
    shards = entry.get("shards") if isinstance(entry, dict) else None
    if not shards:
        raise DataError(f"column '{name}' has no shards in {directory}")
    dtype = np.dtype(entry.get("dtype", "int64"))
    parts = []
    row = 0
    for shard in shards:
        file_name = shard.get("file", "")
        if not file_name or Path(file_name).name != file_name:
            raise DataError(
                f"column '{name}': invalid shard file name {file_name!r}"
            )
        file_path = directory / file_name
        if not file_path.is_file():
            raise DataError(f"column '{name}': missing shard file {file_name}")
        if verify_hashes:
            digest = file_sha256(file_path)
            expected = shard.get("sha256")
            if digest != expected:
                raise DataError(
                    f"column '{name}': shard {file_name} sha256 mismatch "
                    f"(manifest {expected}, file {digest})"
                )
        try:
            array = np.load(
                file_path, mmap_mode="r" if mmap else None, allow_pickle=False
            )
        except MemoryError:
            # Not corruption: the column does not fit in RAM.  Propagate so
            # callers (e.g. the memory-budget probe) see the real condition.
            raise
        except Exception as error:  # noqa: BLE001 - any load failure is corruption
            raise DataError(
                f"column '{name}': corrupt shard {file_name}: {error}"
            ) from None
        if array.ndim != 1 or array.dtype != dtype:
            raise DataError(
                f"column '{name}': shard {file_name} is {array.dtype} "
                f"{array.shape}, expected 1-D {dtype}"
            )
        start, stop = (int(v) for v in shard.get("rows", (row, row)))
        if start != row or stop - start != array.shape[0]:
            raise DataError(
                f"column '{name}': shard {file_name} covers rows "
                f"[{start}, {stop}) but {array.shape[0]} rows follow row {row}"
            )
        row = stop
        parts.append(array)
    declared = int(entry.get("rows", row))
    if declared != row:
        raise DataError(
            f"column '{name}': manifest declares {declared} rows, shards hold {row}"
        )
    if len(parts) == 1:
        column = parts[0]
    elif mmap and name in _SHARDABLE_COLUMNS:
        return ShardedColumn(parts)
    else:
        column = np.concatenate(parts)
    if not mmap:
        column = column.astype(np.int64, copy=False)
    return column


def _write_column_shard(directory: Path, name: str, array: np.ndarray) -> dict:
    """Write one column as a single shard; returns its manifest entry."""
    data = np.ascontiguousarray(np.asarray(array), dtype=np.int64)
    file_name = _shard_file_name(name, 0)
    file_path = directory / file_name
    np.save(file_path, data)
    return {
        "dtype": "int64",
        "rows": int(data.shape[0]),
        "shards": [
            {
                "file": file_name,
                "rows": [0, int(data.shape[0])],
                "sha256": file_sha256(file_path),
            }
        ],
    }


def merge_shard_stores(destination, parts, keep_parts: bool = False) -> Path:
    """Merge consecutive format-v3 part stores into one sharded store.

    ``parts`` are shard directories holding the bags of the final corpus in
    order (part 0 holds bags ``0..n0``, part 1 the next ``n1``, ...) — what
    the parallel encoder's workers produce.  Flat data shards are *renamed*
    into ``destination`` with rebased row ranges (their sha256s are carried
    over, the data is never read or re-hashed), so the merge costs
    O(metadata); only the small offset and per-bag columns are loaded,
    rebased and rewritten.  The part directories are consumed unless
    ``keep_parts=True`` (which copies the data shards instead of moving
    them).  Returns ``destination``.
    """
    destination = Path(destination)
    part_paths = [Path(part) for part in parts]
    if not part_paths:
        raise DataError("merge_shard_stores needs at least one part store")
    manifests = [_read_manifest(part) for part in part_paths]

    def _column_entry(manifest: dict, part: Path, name: str) -> dict:
        columns = manifest.get("columns")
        entry = columns.get(name) if isinstance(columns, dict) else None
        if not isinstance(entry, dict) or not entry.get("shards"):
            raise DataError(f"part store {part} is missing column '{name}'")
        return entry

    destination.mkdir(parents=True, exist_ok=True)
    columns_out = {}
    # Flat data columns: move the shard files, rebasing their row ranges.
    for name in sorted(_SHARDABLE_COLUMNS):
        shards_out = []
        row = 0
        index = 0
        for part, manifest in zip(part_paths, manifests):
            for shard in _column_entry(manifest, part, name)["shards"]:
                source = part / shard["file"]
                if not source.is_file():
                    raise DataError(
                        f"part store {part} is missing shard file {shard['file']}"
                    )
                target_name = _shard_file_name(name, index)
                if keep_parts:
                    shutil.copy2(source, destination / target_name)
                else:
                    shutil.move(str(source), str(destination / target_name))
                size = int(shard["rows"][1]) - int(shard["rows"][0])
                shards_out.append(
                    {
                        "file": target_name,
                        "rows": [row, row + size],
                        "sha256": shard.get("sha256"),
                    }
                )
                row += size
                index += 1
        columns_out[name] = {"dtype": "int64", "rows": row, "shards": shards_out}
    # Offset columns: each part's offsets restart at 0, so drop the leading 0
    # of every later part and shift by the running total.
    for name in _OFFSET_COLUMNS:
        merged = [np.zeros(1, dtype=np.int64)]
        base = 0
        for part, manifest in zip(part_paths, manifests):
            offsets = np.asarray(
                _load_column(
                    part,
                    name,
                    _column_entry(manifest, part, name),
                    mmap=False,
                    verify_hashes=False,
                ),
                dtype=np.int64,
            )
            merged.append(offsets[1:] + base)
            base += int(offsets[-1])
        columns_out[name] = _write_column_shard(
            destination, name, np.concatenate(merged)
        )
    # Per-bag columns: plain concatenation.
    for name in _BAG_COLUMNS:
        merged_bag = np.concatenate(
            [
                np.asarray(
                    _load_column(
                        part,
                        name,
                        _column_entry(manifest, part, name),
                        mmap=False,
                        verify_hashes=False,
                    ),
                    dtype=np.int64,
                )
                for part, manifest in zip(part_paths, manifests)
            ]
        )
        columns_out[name] = _write_column_shard(destination, name, merged_bag)
    _write_manifest(
        destination,
        {
            "format": CORPUS_STORE_FORMAT,
            "num_bags": int(sum(int(m.get("num_bags", 0)) for m in manifests)),
            "columns": columns_out,
        },
    )
    if not keep_parts:
        for part in part_paths:
            shutil.rmtree(part, ignore_errors=True)
    return destination


def pad_token_columns(
    token_ids: np.ndarray,
    head_position_ids: np.ndarray,
    tail_position_ids: np.ndarray,
    segment_ids: np.ndarray,
    lengths: np.ndarray,
    width: int,
    workspace=None,
):
    """Scatter flat token columns into right-padded ``(rows, width)`` matrices.

    The inputs are flat per-token arrays already concatenated in sentence
    order; each sentence ``i`` occupies ``lengths[i]`` entries.  Returns the
    four padded matrices plus the validity mask, using the one padding
    convention everything downstream depends on: token 0, position 0,
    segment -1, mask False.  Shared by :meth:`CorpusStore.bag` and
    :func:`repro.batch.merging.merge_store_batch` so the two can never
    disagree.

    ``workspace`` (a :class:`repro.nn.backend.Workspace`) optionally backs
    the padded matrices with buffers reused across calls — same values, no
    per-batch allocation; callers must consume the previous result before
    padding again against the same workspace.
    """
    valid = np.arange(width)[None, :] < lengths[:, None]
    if workspace is not None:
        shape = (lengths.size, width)
        padded_tokens = workspace.request_filled("pad.tokens", shape, np.int64, 0)
        padded_heads = workspace.request_filled("pad.heads", shape, np.int64, 0)
        padded_tails = workspace.request_filled("pad.tails", shape, np.int64, 0)
        padded_segments = workspace.request_filled("pad.segments", shape, np.int64, -1)
    else:
        padded_tokens = np.zeros((lengths.size, width), dtype=np.int64)
        padded_heads = np.zeros((lengths.size, width), dtype=np.int64)
        padded_tails = np.zeros((lengths.size, width), dtype=np.int64)
        padded_segments = np.full((lengths.size, width), -1, dtype=np.int64)
    padded_tokens[valid] = token_ids
    padded_heads[valid] = head_position_ids
    padded_tails[valid] = tail_position_ids
    padded_segments[valid] = segment_ids
    return padded_tokens, padded_heads, padded_tails, padded_segments, valid


def load_corpus(path) -> CorpusStore:
    """Load an encoded corpus in either on-disk layout as a :class:`CorpusStore`."""
    return CorpusStore.load(path)
