"""Access-pattern primitives for synthetic workloads.

Each primitive is an *infinite* generator of :class:`MemAccess` records
capturing one archetypal behaviour from the paper's Table 1 discussion:

============================  ================================================
``private_stream``            sequential sweeps with high spatial locality
                              (mat-mul, word-count, fft, lu)
``private_random``            sparse single-word accesses over a large
                              footprint (bodytrack, canneal, blackscholes)
``false_sharing_counter``     per-thread counters packed into shared regions
                              (linear-regression, histogram bins, Figure 1)
``shared_read_table``         read-only shared lookup structures (raytrace
                              scene data, kmeans centroids)
``migratory_regions``         whole objects bouncing core-to-core under
                              read-modify-write (locks/task queues)
``producer_stream``/
``consumer_stream``           single-producer single-consumer region handoff
                              (raytrace, x264 pipelines)
``stencil_stream``            private slab sweeps plus neighbour boundary
                              reads/writes (ocean, water, fluidanimate)
============================  ================================================

All primitives take an explicit ``pc`` so the Amoeba spatial predictor can
learn one granularity per access site, and a ``think`` cycle count modelling
the non-memory instructions between references.
"""

from __future__ import annotations

import random
from itertools import islice
from typing import Iterator

from repro.trace.events import MemAccess

WORD = 8
REGION = 64


def _aligned(addr: int) -> int:
    return addr - (addr % WORD)


def private_stream(base: int, footprint: int, pc: int, *, write_frac: float = 0.0,
                   think: int = 4, stride: int = WORD,
                   rng: random.Random) -> Iterator[MemAccess]:
    """Sequential word sweep over ``footprint`` bytes, wrapping forever."""
    offset = 0
    while True:
        addr = base + offset
        is_write = rng.random() < write_frac
        yield MemAccess(is_write, addr, WORD, pc, think)
        offset = (offset + stride) % footprint


def private_random(base: int, footprint: int, pc: int, *, write_frac: float = 0.0,
                   think: int = 6, sparsity: int = 1,
                   rng: random.Random) -> Iterator[MemAccess]:
    """Random single-word accesses over a (possibly sparse) footprint.

    With ``sparsity`` > 1, only one word out of every ``sparsity`` is ever
    accessed — the word chosen by a fixed hash of its slot, so the live
    subset is scattered, not strided.  This models pointer-chasing /
    field-access behaviour (canneal, bodytrack): a fixed-granularity cache
    wastes most of each block's capacity on never-touched neighbours,
    while a variable-granularity cache holds only live words.
    """
    words = footprint // WORD
    slots = max(words // sparsity, 1)
    while True:
        slot = rng.randrange(slots)
        jitter = (slot * 2654435761 >> 8) % sparsity if sparsity > 1 else 0
        addr = base + (slot * sparsity + jitter) * WORD
        is_write = rng.random() < write_frac
        yield MemAccess(is_write, addr, WORD, pc, think)


def false_sharing_counter(base: int, slot: int, pc: int, *, think: int = 2,
                          read_modify_write: bool = True) -> Iterator[MemAccess]:
    """Increment a private counter that shares its region with other slots.

    ``slot`` is the word index within the packed counter array — with 8
    slots per 64-byte region, cores 0..7 false-share one region (the
    paper's Figure 1 OpenMP example).
    """
    addr = base + slot * WORD
    while True:
        if read_modify_write:
            yield MemAccess(False, addr, WORD, pc, think)
        yield MemAccess(True, addr, WORD, pc + 1, think)


def packed_slots(base: int, core: int, slot_bytes: int, pc: int, *,
                 write_frac: float = 0.6, think: int = 3,
                 rng: random.Random) -> Iterator[MemAccess]:
    """Random accesses within a core's *packed* private slot.

    Slots are laid out contiguously with no region alignment, so adjacent
    cores' slots share regions — the allocation pattern behind histogram's
    per-thread bin arrays and string-match's per-thread result slots: pure
    false sharing that a word-granularity protocol eliminates entirely.
    """
    start = base + core * slot_bytes
    words = max(slot_bytes // WORD, 1)
    while True:
        addr = _aligned(start) + rng.randrange(words) * WORD
        is_write = rng.random() < write_frac
        yield MemAccess(is_write, addr, WORD, pc, think)


def shared_read_table(base: int, footprint: int, pc: int, *, think: int = 4,
                      span_words: int = 1, sparsity: int = 1,
                      rng: random.Random) -> Iterator[MemAccess]:
    """Random read-only lookups into a table shared by every core.

    ``span_words`` consecutive words are read per lookup (an "entry").
    With ``sparsity`` > 1 only one entry slot in every ``sparsity`` is
    live (hash-scattered), modelling structures whose records are padded
    or interleaved with never-read fields.
    """
    stride = span_words * WORD
    slots = max(footprint // (stride * sparsity), 1)
    while True:
        slot = rng.randrange(slots)
        jitter = (slot * 2654435761 >> 8) % sparsity if sparsity > 1 else 0
        addr = base + (slot * sparsity + jitter) * stride
        for w in range(span_words):
            yield MemAccess(False, addr + w * WORD, WORD, pc, think)


def migratory_regions(base: int, nregions: int, core: int, pc: int, *,
                      think: int = 4, words_per_visit: int = 8,
                      rng: random.Random) -> Iterator[MemAccess]:
    """Whole-region read-modify-write objects visited round-robin by cores.

    Each visit reads then writes ``words_per_visit`` words of one region;
    the starting region is staggered by core so objects migrate between
    caches (migratory sharing, a true-sharing pattern).
    """
    index = core % max(nregions, 1)
    while True:
        addr = base + index * REGION
        for w in range(words_per_visit):
            yield MemAccess(False, addr + (w % 8) * WORD, WORD, pc, think)
            yield MemAccess(True, addr + (w % 8) * WORD, WORD, pc + 1, think)
        index = (index + 1 + rng.randrange(3)) % max(nregions, 1)


def producer_stream(base: int, nregions: int, pc: int, *,
                    think: int = 4) -> Iterator[MemAccess]:
    """Producer: writes whole regions sequentially, wrapping forever."""
    index = 0
    while True:
        addr = base + index * REGION
        for w in range(8):
            yield MemAccess(True, addr + w * WORD, WORD, pc, think)
        index = (index + 1) % max(nregions, 1)


def consumer_stream(base: int, nregions: int, pc: int, *, think: int = 4,
                    lag: int = 2) -> Iterator[MemAccess]:
    """Consumer: reads whole regions sequentially, trailing the producer."""
    index = -lag % max(nregions, 1)
    while True:
        addr = base + index * REGION
        for w in range(8):
            yield MemAccess(False, addr + w * WORD, WORD, pc, think)
        index = (index + 1) % max(nregions, 1)


def stencil_stream(core: int, cores: int, base: int, slab_bytes: int, pc: int, *,
                   think: int = 4, write_frac: float = 0.3,
                   boundary_every: int = 16, rng: random.Random) -> Iterator[MemAccess]:
    """Grid-solver slab sweep with neighbour boundary exchanges.

    The core sweeps its private slab (read-modify-write), and every
    ``boundary_every`` accesses reads a word from a neighbour's slab edge —
    the fine-grain read-write sharing that inflates invalidations as fixed
    blocks grow (ocean/water/fluidanimate in Table 1).
    """
    slab = base + core * slab_bytes
    left = base + ((core - 1) % cores) * slab_bytes + slab_bytes - REGION
    right = base + ((core + 1) % cores) * slab_bytes
    offset = 0
    count = 0
    while True:
        addr = slab + offset
        yield MemAccess(False, addr, WORD, pc, think)
        if rng.random() < write_frac:
            yield MemAccess(True, addr, WORD, pc + 1, think)
        count += 1
        if count % boundary_every == 0:
            edge = left if (count // boundary_every) % 2 == 0 else right
            yield MemAccess(False, edge + rng.randrange(8) * WORD, WORD, pc + 2, think)
        offset = (offset + WORD) % slab_bytes


def interleave(rng: random.Random, weighted, burst: int = 16) -> Iterator[MemAccess]:
    """Mix weighted (weight, generator) pairs in bursts.

    Bursts preserve each component's spatial locality while interleaving
    phases, approximating real applications' mixed behaviour.
    """
    gens = [g for _, g in weighted]
    weights = [w for w, _ in weighted]
    total = sum(weights)
    if total <= 0:
        raise ValueError("need positive weights")
    while True:
        pick = rng.random() * total
        acc = 0.0
        chosen = gens[-1]
        for weight, gen in zip(weights, gens):
            acc += weight
            if pick <= acc:
                chosen = gen
                break
        yield from islice(chosen, 1 + rng.randrange(burst))
