"""Encoding bags into arrays and batching them for training.

The models consume :class:`repro.corpus.bags.EncodedBag` objects: padded
token-id matrices, relative-position ids, PCNN segment ids and entity/type
ids.  Encoding is done once up front (the synthetic corpora fit comfortably
in memory).

Two encoder paths produce identical arrays:

* :meth:`BagEncoder.encode` / :meth:`BagEncoder.encode_all` — the per-bag
  loop of the seed implementation, kept as the executable specification and
  the fallback for one-off bags (the serving layer encodes single requests
  with it);
* :meth:`BagEncoder.encode_store` — the vectorized path: ONE bulk
  ``Vocabulary.encode_array`` over every token of the corpus, vectorized
  relative-position / PCNN-segment computation (:mod:`repro.text.position`),
  producing a columnar :class:`repro.corpus.store.CorpusStore` whose per-bag
  views equal the per-bag path bit for bit
  (``benchmarks/test_bench_corpus.py`` records the speedup).

Batching iterates index permutations: :class:`BatchIterator` owns a
persistent shuffle buffer and yields lists of bags (sequence sources) or
index arrays (store sources).
"""

from __future__ import annotations

import multiprocessing
import shutil
import tempfile
from pathlib import Path
from typing import Dict, Iterator, List, Optional, Sequence, Tuple, Union

import numpy as np

from ..exceptions import DataError
from ..kb.schema import COARSE_ENTITY_TYPES
from ..text.position import (
    relative_position_arrays,
    relative_positions,
    segment_id_arrays,
    segment_ids_for_entities,
)
from ..text.vocab import Vocabulary
from ..utils.arrays import offsets_from_sizes
from .bags import Bag, EncodedBag
from .store import CorpusStore, merge_shard_stores


class TypeVocabulary:
    """Maps coarse FIGER types to dense ids (id 0 is reserved for 'unknown')."""

    UNKNOWN = "<unknown_type>"

    def __init__(self, types: Sequence[str] = COARSE_ENTITY_TYPES) -> None:
        self._types: List[str] = [self.UNKNOWN] + list(types)
        self._type_to_id: Dict[str, int] = {t: i for i, t in enumerate(self._types)}
        # Sorted (names, ids) table for the bulk encoder.
        names = np.array(self._types, dtype=np.str_)
        order = np.argsort(names)
        self._sorted_names = names[order]
        self._sorted_ids = order.astype(np.int64)

    def __len__(self) -> int:
        return len(self._types)

    def type_to_id(self, coarse_type: str) -> int:
        return self._type_to_id.get(coarse_type, 0)

    def id_to_type(self, index: int) -> str:
        return self._types[index]

    def encode(self, types: Sequence[str]) -> np.ndarray:
        """Encode a non-empty sequence of type names to ids (unknown if empty).

        Same mapping as :meth:`encode_array`; per-bag type tuples are tiny,
        so the dict lookup is kept for them (numpy setup would dominate).
        """
        if not types:
            return np.array([0], dtype=np.int64)
        if len(types) < 64:
            return np.array([self.type_to_id(t) for t in types], dtype=np.int64)
        return self.encode_array(types)

    def encode_array(self, types) -> np.ndarray:
        """Bulk type-name -> id mapping (unknown names map to id 0).

        One ``np.searchsorted`` over the sorted type table encodes an
        arbitrarily large name array at C speed; the scalar :meth:`encode`
        wraps this for per-bag callers.
        """
        from ..utils.arrays import lookup_sorted

        names = np.asarray(types, dtype=np.str_)
        if names.size == 0:
            return np.empty(0, dtype=np.int64)
        return lookup_sorted(self._sorted_names, self._sorted_ids, names, 0)

    def to_list(self) -> List[str]:
        """Return the id-ordered type list (for JSON round-tripping)."""
        return list(self._types)

    @classmethod
    def from_list(cls, types: Sequence[str]) -> "TypeVocabulary":
        """Rebuild a type vocabulary from :meth:`to_list` output."""
        if not types or types[0] != cls.UNKNOWN:
            raise DataError(
                f"type list must start with the reserved '{cls.UNKNOWN}' entry"
            )
        return cls(types=list(types[1:]))


class BagEncoder:
    """Convert :class:`Bag` objects into :class:`EncodedBag` arrays."""

    def __init__(
        self,
        vocabulary: Vocabulary,
        max_sentence_length: int = 120,
        max_position_distance: int = 60,
        max_sentences_per_bag: Optional[int] = None,
        type_vocabulary: Optional[TypeVocabulary] = None,
    ) -> None:
        if max_sentence_length < 2:
            raise DataError("max_sentence_length must be at least 2")
        self.vocabulary = vocabulary
        self.max_sentence_length = max_sentence_length
        self.max_position_distance = max_position_distance
        self.max_sentences_per_bag = max_sentences_per_bag
        self.type_vocabulary = type_vocabulary or TypeVocabulary()

    @property
    def num_position_ids(self) -> int:
        return 2 * self.max_position_distance + 1

    def encode(self, bag: Bag) -> EncodedBag:
        """Encode one bag; sentences beyond the per-bag cap are dropped.

        Sentences are padded to the longest sentence *within the bag* (capped
        at ``max_sentence_length``) rather than to the global maximum, which
        keeps the encoder and GRU costs proportional to real sentence lengths.
        """
        sentences = bag.sentences
        if self.max_sentences_per_bag is not None:
            sentences = sentences[: self.max_sentences_per_bag]
        if not sentences:
            raise DataError(f"bag for pair {bag.pair} has no sentences")

        num_sentences = len(sentences)
        max_len = min(
            self.max_sentence_length,
            max(sentence.length for sentence in sentences),
        )
        max_len = max(max_len, 2)
        token_ids = np.zeros((num_sentences, max_len), dtype=np.int64)
        head_pos = np.zeros((num_sentences, max_len), dtype=np.int64)
        tail_pos = np.zeros((num_sentences, max_len), dtype=np.int64)
        segments = np.full((num_sentences, max_len), -1, dtype=np.int64)
        mask = np.zeros((num_sentences, max_len), dtype=bool)

        for i, sentence in enumerate(sentences):
            tokens = sentence.tokens[:max_len]
            length = len(tokens)
            head_index = min(sentence.head_position, length - 1)
            tail_index = min(sentence.tail_position, length - 1)
            token_ids[i, :length] = self.vocabulary.encode(tokens)
            h_ids, t_ids = relative_positions(
                length, head_index, tail_index, self.max_position_distance
            )
            head_pos[i, :length] = h_ids
            tail_pos[i, :length] = t_ids
            segments[i, :length] = segment_ids_for_entities(length, head_index, tail_index)
            mask[i, :length] = True

        return EncodedBag(
            token_ids=token_ids,
            head_position_ids=head_pos,
            tail_position_ids=tail_pos,
            segment_ids=segments,
            mask=mask,
            label=bag.primary_relation,
            relation_ids=tuple(sorted(bag.relation_ids)),
            head_entity_id=bag.head_id,
            tail_entity_id=bag.tail_id,
            head_type_ids=self.type_vocabulary.encode(bag.head_types),
            tail_type_ids=self.type_vocabulary.encode(bag.tail_types),
        )

    def encode_all(self, bags: Sequence[Bag]) -> List[EncodedBag]:
        """Encode every bag in a dataset split (per-bag reference path)."""
        return [self.encode(bag) for bag in bags]

    def encode_store(
        self,
        bags: Sequence[Bag],
        workers: int = 0,
        out=None,
        mmap: bool = False,
    ) -> CorpusStore:
        """Encode a whole split into a columnar :class:`CorpusStore`.

        Vectorized equivalent of :meth:`encode_all` — same truncation,
        clamping and padding semantics, proven bit-identical by
        ``tests/test_corpus_store.py`` — but all tokens of the corpus are
        mapped through the vocabulary in one ``np.searchsorted`` pass and the
        position / segment features are computed as flat array expressions.

        ``workers > 1`` fans the encode out over contiguous bag ranges with
        fork-based :mod:`multiprocessing` (see :meth:`_encode_store_parallel`;
        results are bitwise identical to the serial path).  ``out`` writes
        the result as a format-v3 shard directory at that path, and
        ``mmap=True`` (requires ``out``) returns the store memmapped from
        those shards instead of in RAM — the combination the out-of-core
        pipeline uses so a corpus larger than memory is never materialised.
        """
        if mmap and out is None:
            raise DataError(
                "encode_store(mmap=True) needs out= (a shard-directory path "
                "to memmap the encoded corpus from)"
            )
        if out is not None and Path(out).suffix == ".npz":
            raise DataError(
                "encode_store(out=...) writes the format-v3 shard directory; "
                "pass a directory path, not an .npz file"
            )
        workers = int(workers)
        if (
            workers > 1
            and len(bags) >= 2 * workers
            and "fork" in multiprocessing.get_all_start_methods()
        ):
            return self._encode_store_parallel(bags, workers, out=out, mmap=mmap)
        store = self._encode_store_serial(bags)
        if out is not None:
            store.save_sharded(Path(out))
            if mmap:
                return CorpusStore.load(Path(out), mmap=True)
        return store

    def _encode_store_parallel(
        self,
        bags: Sequence[Bag],
        workers: int,
        out=None,
        mmap: bool = False,
    ) -> CorpusStore:
        """Fan the encode out over contiguous bag ranges with forked workers.

        Each worker runs the serial vectorized encoder on its slice and
        writes an independent format-v3 part store (its own shard files);
        the parent then merges the parts by *renaming* shard files into
        place (:func:`repro.corpus.store.merge_shard_stores`) — no column
        data is ever pickled, sent over a pipe, or re-read.  Forking means
        the bags reach the children through copy-on-write pages; the
        vocabulary lookup table is warmed first so children inherit it too.
        Encoding is deterministic, so the result is bitwise identical to the
        serial path regardless of worker count.
        """
        self.vocabulary.warm_lookup()
        bounds = np.linspace(0, len(bags), workers + 1).astype(np.int64)
        scratch = Path(tempfile.mkdtemp(prefix="repro-encode-"))
        context = multiprocessing.get_context("fork")
        try:
            part_paths = []
            processes = []
            for rank, (lo, hi) in enumerate(zip(bounds[:-1], bounds[1:])):
                part = scratch / f"part-{rank:03d}"
                part_paths.append(part)
                process = context.Process(
                    target=_encode_worker,
                    args=(self, bags, int(lo), int(hi), part),
                )
                process.start()
                processes.append(process)
            failed = []
            for rank, process in enumerate(processes):
                process.join()
                if process.exitcode != 0:
                    failed.append((rank, process.exitcode))
            if failed:
                raise DataError(
                    "encode worker(s) failed: "
                    + ", ".join(f"rank {r} exit {c}" for r, c in failed)
                    + " (tracebacks on stderr)"
                )
            target = Path(out) if out is not None else scratch / "merged"
            merge_shard_stores(target, part_paths)
            return CorpusStore.load(target, mmap=mmap)
        finally:
            shutil.rmtree(scratch, ignore_errors=True)

    def _encode_store_serial(self, bags: Sequence[Bag]) -> CorpusStore:
        """The in-process vectorized encode (see :meth:`encode_store`)."""
        num_bags = len(bags)
        counts = np.empty(num_bags, dtype=np.int64)
        labels = np.empty(num_bags, dtype=np.int64)
        heads = np.empty(num_bags, dtype=np.int64)
        tails = np.empty(num_bags, dtype=np.int64)
        raw_lengths: List[int] = []
        head_raw: List[int] = []
        tail_raw: List[int] = []
        relation_parts: List[Tuple[int, ...]] = []
        head_type_names: List[str] = []
        head_type_counts = np.empty(num_bags, dtype=np.int64)
        tail_type_names: List[str] = []
        tail_type_counts = np.empty(num_bags, dtype=np.int64)
        kept_sentences = []
        cap = self.max_sentences_per_bag
        for i, bag in enumerate(bags):
            sentences = bag.sentences if cap is None else bag.sentences[:cap]
            if not sentences:
                raise DataError(f"bag for pair {bag.pair} has no sentences")
            counts[i] = len(sentences)
            labels[i] = bag.primary_relation
            heads[i] = bag.head_id
            tails[i] = bag.tail_id
            relation_parts.append(tuple(sorted(bag.relation_ids)))
            head_type_names.extend(bag.head_types)
            head_type_counts[i] = len(bag.head_types)
            tail_type_names.extend(bag.tail_types)
            tail_type_counts[i] = len(bag.tail_types)
            for sentence in sentences:
                raw_lengths.append(sentence.length)
                head_raw.append(sentence.head_position)
                tail_raw.append(sentence.tail_position)
            kept_sentences.append(sentences)

        bag_offsets = offsets_from_sizes(counts)
        raw = np.array(raw_lengths, dtype=np.int64)
        # Per-bag pad width: the bag's longest sentence, capped and clamped
        # exactly as in the per-bag path.
        widths = np.maximum.reduceat(raw, bag_offsets[:-1]) if num_bags else raw
        widths = np.maximum(np.minimum(widths, self.max_sentence_length), 2)
        lengths = np.minimum(raw, np.repeat(widths, counts))
        head_idx = np.minimum(np.array(head_raw, dtype=np.int64), lengths - 1)
        tail_idx = np.minimum(np.array(tail_raw, dtype=np.int64), lengths - 1)

        # One flat token stream over the whole corpus, truncated per sentence.
        tokens: List[str] = []
        flat_index = 0
        for sentences in kept_sentences:
            for sentence in sentences:
                keep = int(lengths[flat_index])
                tokens.extend(
                    sentence.tokens if keep == sentence.length
                    else sentence.tokens[:keep]
                )
                flat_index += 1
        token_ids = self.vocabulary.encode_array(tokens)
        head_pos, tail_pos = relative_position_arrays(
            lengths, head_idx, tail_idx, self.max_position_distance
        )
        segments = segment_id_arrays(lengths, head_idx, tail_idx)

        relation_sizes = np.array([len(r) for r in relation_parts], dtype=np.int64)
        relation_flat = np.array(
            [r for part in relation_parts for r in part], dtype=np.int64
        )
        head_type_ids, head_type_offsets = self._encode_type_column(
            head_type_names, head_type_counts
        )
        tail_type_ids, tail_type_offsets = self._encode_type_column(
            tail_type_names, tail_type_counts
        )
        return CorpusStore(
            token_ids=token_ids,
            head_position_ids=head_pos,
            tail_position_ids=tail_pos,
            segment_ids=segments,
            sentence_offsets=offsets_from_sizes(lengths),
            bag_offsets=bag_offsets,
            bag_widths=widths,
            labels=labels,
            head_entity_ids=heads,
            tail_entity_ids=tails,
            relation_ids=relation_flat,
            relation_offsets=offsets_from_sizes(relation_sizes),
            head_type_ids=head_type_ids,
            head_type_offsets=head_type_offsets,
            tail_type_ids=tail_type_ids,
            tail_type_offsets=tail_type_offsets,
        )

    def _encode_type_column(
        self, names: List[str], counts: np.ndarray
    ) -> Tuple[np.ndarray, np.ndarray]:
        """Ragged type-id column: bags without types get the single unknown id."""
        encoded = self.type_vocabulary.encode_array(names)
        empty = counts == 0
        if not empty.any():
            return encoded, offsets_from_sizes(counts)
        # Splice a single id-0 entry into each empty bag's slot, matching
        # ``TypeVocabulary.encode([]) == [0]``.
        out_counts = np.where(empty, 1, counts)
        offsets = offsets_from_sizes(out_counts)
        flat = np.zeros(int(offsets[-1]), dtype=np.int64)
        keep = np.ones(int(offsets[-1]), dtype=bool)
        keep[offsets[:-1][empty]] = False
        flat[keep] = encoded
        return flat, offsets


def _encode_worker(encoder: BagEncoder, bags: Sequence[Bag], lo: int, hi: int, part_path: Path) -> None:
    """Encode bags ``[lo, hi)`` into a part store (runs in a forked child).

    The child inherits ``encoder`` and ``bags`` through copy-on-write fork
    pages and hands its result back through the part store's shard files, so
    nothing is pickled in either direction.
    """
    store = encoder._encode_store_serial(bags[lo:hi])
    store.save_sharded(part_path)


class BatchIterator:
    """Yield shuffled mini-batches over an encoded corpus.

    Accepts either a sequence of :class:`EncodedBag` objects (batches are
    lists of bags, as the per-bag training loop expects) or a columnar
    :class:`~repro.corpus.store.CorpusStore` (batches are int64 *index
    arrays* into the store, so batch assembly can slice the store's offsets
    without materialising per-bag objects — see
    :func:`repro.batch.merging.merge_store_batch`).

    The iterator is reusable: each ``__iter__`` reshuffles one persistent
    permutation buffer in place (no per-epoch ``np.arange`` rebuild, no
    Python-list indexing), so a multi-epoch training loop constructs it once.
    """

    def __init__(
        self,
        encoded_bags: Union[Sequence[EncodedBag], CorpusStore],
        batch_size: int,
        shuffle: bool = True,
        rng: Optional[np.random.Generator] = None,
        drop_last: bool = False,
    ) -> None:
        if batch_size <= 0:
            raise DataError("batch_size must be positive")
        if isinstance(encoded_bags, CorpusStore):
            self.store: Optional[CorpusStore] = encoded_bags
            self.encoded_bags: Optional[np.ndarray] = None
            num_bags = len(encoded_bags)
        else:
            self.store = None
            # An object ndarray supports fancy indexing by the permutation
            # buffer; ``.tolist()`` of a slice beats a per-item Python loop.
            self.encoded_bags = np.empty(len(encoded_bags), dtype=object)
            self.encoded_bags[:] = list(encoded_bags)
            num_bags = self.encoded_bags.size
        if drop_last and num_bags < batch_size:
            # Silently yielding zero batches produces an "empty" epoch whose
            # mean loss is NaN far downstream; fail where the mistake is.
            raise DataError(
                f"drop_last=True with {num_bags} bags and "
                f"batch_size={batch_size} would yield zero batches; lower the "
                "batch size or disable drop_last"
            )
        self.batch_size = batch_size
        self.shuffle = shuffle
        self.drop_last = drop_last
        self._rng = rng or np.random.default_rng()
        self._order = np.arange(num_bags, dtype=np.int64)

    @property
    def num_bags(self) -> int:
        return self._order.size

    def __len__(self) -> int:
        full, remainder = divmod(self.num_bags, self.batch_size)
        if remainder and not self.drop_last:
            return full + 1
        return full

    def __iter__(self) -> Iterator[Union[List[EncodedBag], np.ndarray]]:
        if self.shuffle:
            self._rng.shuffle(self._order)
        for start in range(0, self.num_bags, self.batch_size):
            indices = self._order[start:start + self.batch_size]
            if self.drop_last and indices.size < self.batch_size:
                break
            if self.store is not None:
                # A copy, not a view: the persistent buffer is reshuffled in
                # place next epoch, and consumers may hold (or sort) batches.
                yield indices.copy()
            else:
                yield self.encoded_bags[indices].tolist()
