"""Closed-form checks of the cache oracles, which need no second
implementation to compare against.

Under uniformly random accesses over M lines, a cache that holds C
distinct lines hits with steady-state probability C/M, whatever its
associativity or replacement: each access names a resident line with
that probability.  A direct-mapped cache backed by a V-entry victim
buffer holds C + V distinct lines once warm (the two are exclusive), so
it hits with probability (C + V)/M.  Random reference streams of this
kind are the setting of Majumdar & Radhakrishnan's analytical studies
of cache strategies.  Each rate is asserted within a binomial tolerance
over a few seeded traces.
"""

import math

import pytest

from repro.cache.direct import DirectMappedCache
from repro.cache.geometry import CacheGeometry
from repro.cache.setassoc import SetAssociativeCache
from repro.cache.victim import VictimCacheSystem
from repro.trace.synth import uniform_trace

_ACCESSES = 200_000
_FOOTPRINT_WORDS = 4096
_LINE_BYTES = 32
_SIZE_BYTES = 4 * 1024

#: M and C: 512 traced lines, 128 cached.
_TRACED_LINES = _FOOTPRINT_WORDS * 4 // _LINE_BYTES
_CACHED_LINES = _SIZE_BYTES // _LINE_BYTES


@pytest.fixture(scope="module", params=(0, 1, 2), ids=lambda s: f"seed{s}")
def trace(request):
    return uniform_trace(
        _ACCESSES, footprint_words=_FOOTPRINT_WORDS, seed=request.param
    )


def _assert_rate(stats, resident_lines):
    """The hit rate is ``resident_lines / M`` within four binomial
    standard deviations."""
    expected = resident_lines / _TRACED_LINES
    sigma = math.sqrt(expected * (1 - expected) / stats.accesses)
    observed = stats.hits / stats.accesses
    assert abs(observed - expected) < 4 * sigma, (observed, expected)


@pytest.mark.parametrize("ways", (1, 2, 4, _CACHED_LINES))
def test_cache_hits_c_over_m(trace, ways):
    geometry = CacheGeometry(_SIZE_BYTES, _LINE_BYTES, ways=ways)
    if ways == 1:
        cache = DirectMappedCache(geometry)
    else:
        cache = SetAssociativeCache(geometry)
    _assert_rate(cache.simulate_batch(trace), _CACHED_LINES)


@pytest.mark.parametrize("victims", (4, 16))
def test_victim_buffer_hits_c_plus_v_over_m(trace, victims):
    system = VictimCacheSystem(
        CacheGeometry(_SIZE_BYTES, _LINE_BYTES), victims
    )
    _assert_rate(system.simulate(trace), _CACHED_LINES + victims)
