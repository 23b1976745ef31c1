"""Unit and property tests for the cache tag store, address map and DRAM model."""

import pytest
from hypothesis import given, settings, strategies as st

from repro.mem import (
    AddressMap,
    CoherenceState,
    MainMemory,
    MemoryConfig,
    SetAssociativeCache,
)


# --------------------------------------------------------------------------- #
# MemoryConfig
# --------------------------------------------------------------------------- #
def test_default_config_matches_dolly():
    config = MemoryConfig()
    assert config.line_bytes == 16
    assert config.l2_size_bytes == 8 * 1024
    assert config.llc_shard_size_bytes == 64 * 1024
    assert config.words_per_line == 2
    assert config.max_store_bytes == 8


def test_config_validation():
    with pytest.raises(ValueError):
        MemoryConfig(line_bytes=24)
    with pytest.raises(ValueError):
        MemoryConfig(word_bytes=5)
    with pytest.raises(ValueError):
        MemoryConfig(l1_size_bytes=1000, l1_assoc=3)


# --------------------------------------------------------------------------- #
# AddressMap
# --------------------------------------------------------------------------- #
def test_line_and_word_alignment():
    amap = AddressMap(MemoryConfig(), home_tiles=[0, 1, 2, 3])
    assert amap.line_of(0x1234) == 0x1230
    assert 0x1234 - amap.line_of(0x1234) == 4
    assert amap.line_of(0x1230) == amap.line_of(0x123F)
    assert amap.line_of(0x1230) != amap.line_of(0x1240)


def test_lines_spanning_regions():
    amap = AddressMap(MemoryConfig(), home_tiles=[0])
    assert amap.lines_spanning(0x100, 16) == [0x100]
    assert amap.lines_spanning(0x100, 17) == [0x100, 0x110]
    assert amap.lines_spanning(0x108, 16) == [0x100, 0x110]
    assert amap.lines_spanning(0x100, 0) == []


def test_home_tile_interleaving_covers_all_tiles():
    amap = AddressMap(MemoryConfig(), home_tiles=[0, 1, 2, 3])
    homes = {amap.home_tile(line * 16) for line in range(16)}
    assert homes == {0, 1, 2, 3}
    # Consecutive lines map to different homes (line interleaving).
    assert amap.home_tile(0x0) != amap.home_tile(0x10)


def test_address_map_requires_home_tiles():
    with pytest.raises(ValueError):
        AddressMap(MemoryConfig(), home_tiles=[])


@given(addr=st.integers(min_value=0, max_value=2**40), n=st.integers(min_value=1, max_value=64))
def test_home_tile_is_stable_and_line_granular(addr, n):
    amap = AddressMap(MemoryConfig(), home_tiles=list(range(n)))
    home = amap.home_tile(addr)
    assert 0 <= home < n
    # Every address in the same line has the same home.
    assert amap.home_tile(amap.line_of(addr)) == home
    assert amap.home_tile(amap.line_of(addr) + 15) == home


# --------------------------------------------------------------------------- #
# SetAssociativeCache
# --------------------------------------------------------------------------- #
def test_cache_insert_lookup_and_miss_counts():
    cache = SetAssociativeCache(1024, 16, 2)
    assert cache.lookup(0x100) is None
    cache.insert(0x100, CoherenceState.SHARED)
    entry = cache.lookup(0x100)
    assert entry is not None and entry.state is CoherenceState.SHARED
    assert cache.hits == 1
    assert cache.misses == 1


def test_cache_lru_eviction_order():
    # 2-way cache: third distinct line in a set evicts the least recently used.
    cache = SetAssociativeCache(line_bytes=16, assoc=2, size_bytes=16 * 2 * 4)  # 4 sets
    set_stride = 16 * cache.num_sets
    a, b, c = 0x0, set_stride, 2 * set_stride  # all map to set 0
    cache.insert(a, CoherenceState.SHARED)
    cache.insert(b, CoherenceState.SHARED)
    cache.lookup(a)  # touch a, so b becomes LRU
    victim = cache.insert(c, CoherenceState.SHARED)
    assert victim is not None and victim.line_addr == b
    assert a in cache and c in cache and b not in cache


def test_cache_invalidate_and_contains():
    cache = SetAssociativeCache(1024, 16, 4)
    cache.insert(0x40, CoherenceState.MODIFIED, dirty=True)
    assert 0x40 in cache
    removed = cache.invalidate(0x40)
    assert removed.dirty
    assert 0x40 not in cache
    assert cache.invalidate(0x40) is None


def test_cache_geometry_validation():
    with pytest.raises(ValueError):
        SetAssociativeCache(1000, 16, 3)
    with pytest.raises(ValueError):
        SetAssociativeCache(0, 16, 1)


def test_cache_peek_does_not_touch_lru_or_stats():
    cache = SetAssociativeCache(line_bytes=16, assoc=2, size_bytes=16 * 2)
    cache.insert(0x00, CoherenceState.SHARED)
    cache.insert(0x20, CoherenceState.SHARED)
    hits_before = cache.hits
    cache.peek(0x00)
    assert cache.hits == hits_before
    # 0x00 is still LRU because peek did not touch it.
    victim = cache.insert(0x40, CoherenceState.SHARED)
    assert victim.line_addr == 0x00


@settings(max_examples=50, deadline=None)
@given(
    addresses=st.lists(st.integers(min_value=0, max_value=255), min_size=1, max_size=200),
)
def test_cache_never_exceeds_capacity_and_residency_is_consistent(addresses):
    cache = SetAssociativeCache(size_bytes=16 * 16, line_bytes=16, assoc=2)
    resident = set()
    for index in addresses:
        line = index * 16
        victim = cache.insert(line, CoherenceState.SHARED)
        resident.add(line)
        if victim is not None:
            resident.discard(victim.line_addr)
        assert len(cache) <= cache.num_sets * cache.assoc
        # Per-set occupancy never exceeds associativity.
        assert len(cache) == len(resident)
    for line in resident:
        assert cache.peek(line) is not None


class _ReferenceCache:
    """A list-per-set model of :class:`SetAssociativeCache`: LRU first."""

    def __init__(self, num_sets, line_bytes, assoc):
        self.sets = [[] for _ in range(num_sets)]
        self.line_bytes, self.assoc = line_bytes, assoc
        self.hits = self.misses = self.evictions = 0

    def _find(self, line):
        cache_set = self.sets[(line // self.line_bytes) % len(self.sets)]
        for index, (addr, _) in enumerate(cache_set):
            if addr == line:
                return cache_set, index
        return cache_set, None

    def insert(self, line, state):
        cache_set, index = self._find(line)
        victim = None
        if index is not None:
            del cache_set[index]
        elif len(cache_set) >= self.assoc:
            victim = cache_set.pop(0)[0]
            self.evictions += 1
        cache_set.append((line, state))
        return victim

    def lookup(self, line, touch):
        cache_set, index = self._find(line)
        if index is None or cache_set[index][1] is CoherenceState.INVALID:
            self.misses += 1
            return None
        if touch:
            cache_set.append(cache_set.pop(index))
        self.hits += 1
        return cache_set[-1 if touch else index]

    def invalidate(self, line):
        cache_set, index = self._find(line)
        return None if index is None else cache_set.pop(index)[0]

    def entries(self):
        return [entry for cache_set in self.sets for entry in cache_set]


_CACHE_OPS = st.lists(
    st.tuples(st.sampled_from(["insert", "lookup", "touchless", "invalidate"]),
              st.integers(min_value=0, max_value=63),
              st.sampled_from(list(CoherenceState))),
    max_size=120)


@settings(max_examples=80, deadline=None)
@given(ops=_CACHE_OPS, assoc=st.sampled_from([1, 2, 4]))
def test_lazily_allocated_sets_match_a_reference_cache(ops, assoc):
    """Sets get their own storage on first insert; LRU order, eviction,
    ``entries()``, ``len`` and the counters match a plain model, and the
    one shared empty set is never written."""
    from repro.mem.cache_store import _EMPTY_SET

    cache = SetAssociativeCache(size_bytes=16 * assoc * 8, line_bytes=16,
                                assoc=assoc)
    model = _ReferenceCache(cache.num_sets, 16, assoc)
    for op, index, state in ops:
        line = index * 16
        if op == "insert":
            victim = cache.insert(line, state)
            assert (victim and victim.line_addr) == model.insert(line, state)
        elif op in ("lookup", "touchless"):
            entry = cache.lookup(line, touch=op == "lookup")
            expected = model.lookup(line, touch=op == "lookup")
            assert (entry and (entry.line_addr, entry.state)) == expected
        else:
            removed = cache.invalidate(line)
            assert (removed and removed.line_addr) == model.invalidate(line)
        assert [(entry.line_addr, entry.state)
                for entry in cache.entries()] == model.entries()
        assert len(cache) == len(model.entries())
        assert (cache.hits, cache.misses, cache.evictions) == (
            model.hits, model.misses, model.evictions)
        assert len(_EMPTY_SET) == 0


# --------------------------------------------------------------------------- #
# MainMemory
# --------------------------------------------------------------------------- #
def test_memory_word_roundtrip_and_default_zero():
    memory = MainMemory(MemoryConfig())
    assert memory.read_word(0x1000) == 0
    memory.write_word(0x1000, 42)
    assert memory.read_word(0x1000) == 42
    # Sub-word addresses alias onto the same word.
    assert memory.read_word(0x1004) == 42


def test_memory_read_modify_write_returns_old_value():
    memory = MainMemory(MemoryConfig())
    memory.write_word(0x2000, 5)
    old = memory.read_modify_write(0x2000, lambda v: v + 10)
    assert old == 5
    assert memory.read_word(0x2000) == 15


def test_memory_allocator_alignment_and_disjointness():
    memory = MainMemory(MemoryConfig())
    a = memory.allocate(100)
    b = memory.allocate(100)
    assert a % 16 == 0 and b % 16 == 0
    assert b >= a + 100
    c = memory.allocate(8, align=64)
    assert c % 64 == 0
