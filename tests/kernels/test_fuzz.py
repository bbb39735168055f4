"""Seeded differential fuzzing of the kernels against their oracles.

Each example draws a cache configuration and a short value-consistent
trace from :mod:`repro.trace.synth`, replays the trace through a kernel
and through the pure-Python oracle, and requires every counter to
agree.  The examples come from a fixed seed, so tier-1 runs the same
examples every time, as many as the active Hypothesis profile asks for
(the default profile's 100).  CI's backend-parity job selects a long
budget with ``--hypothesis-profile=fuzz-long``, a profile registered in
``tests/conftest.py``.  A failure the fuzzer shrinks is pinned here with
``@example``.
"""

from __future__ import annotations

import pytest
from hypothesis import example, given, seed, settings
from hypothesis import strategies as st

from repro.cache.geometry import CacheGeometry
from repro.experiments.common import encoder_for
from repro.fvc.system import FvcSystem, FvcSystemConfig
from repro.kernels import backend
from repro.kernels.fvc import fvc_cell_replay
from repro.trace.synth import uniform_trace, zipf_value_trace

pytestmark = pytest.mark.skipif(
    not backend.numpy_available(), reason="vectorized backend needs numpy"
)


#: Short value-consistent traces: uniformly random words, with stores
#: of the same three frequent values at any rate, or of random values
#: at any store rate (the values a trace stores and reloads still rank
#: at the top of its profile).
_TRACES = st.one_of(
    st.builds(
        zipf_value_trace,
        accesses=st.integers(min_value=1, max_value=300),
        footprint_words=st.integers(min_value=1, max_value=512),
        frequent_fraction=st.floats(min_value=0.0, max_value=1.0),
        seed=st.integers(min_value=0, max_value=2**16),
    ),
    st.builds(
        uniform_trace,
        accesses=st.integers(min_value=1, max_value=300),
        footprint_words=st.integers(min_value=1, max_value=512),
        store_fraction=st.floats(min_value=0.0, max_value=1.0),
        seed=st.integers(min_value=0, max_value=2**16),
    ),
)


class TestFvcFuzz:
    """``fvc_cell_replay`` against ``FvcSystem`` over direct-mapped and
    2-, 4- and 8-way main caches, FVCs on both sides of the set count
    and occupancy sampling on or off."""

    @seed(23)
    @settings(deadline=None)
    @given(
        trace=_TRACES,
        ways=st.sampled_from([1, 2, 4, 8]),
        sets_log2=st.integers(min_value=0, max_value=5),
        line_bytes=st.sampled_from([4, 8, 16, 32, 64]),
        # log2 of the FVC's entries over the main cache's sets.
        fvc_side=st.integers(min_value=-3, max_value=3),
        top=st.sampled_from([1, 3, 7]),
        interval=st.one_of(st.just(0), st.integers(min_value=1, max_value=16)),
    )
    # A 2-way victim that was promoted from the FVC with dirty words is
    # written back even though no store touched it in the main cache.
    @example(
        trace=zipf_value_trace(
            accesses=72, footprint_words=173, frequent_fraction=0.5, seed=2
        ),
        ways=2,
        sets_log2=1,
        line_bytes=32,
        fvc_side=3,
        top=1,
        interval=0,
    )
    # Two sets share one FVC slot: an install from one cuts the other's
    # hit batch, and its next touch of the displaced line is a miss.
    @example(
        trace=zipf_value_trace(
            accesses=9, footprint_words=64, frequent_fraction=1.0, seed=1
        ),
        ways=1,
        sets_log2=1,
        line_bytes=64,
        fvc_side=-1,
        top=1,
        interval=0,
    )
    def test_every_counter_equals_the_oracle(
        self, trace, ways, sets_log2, line_bytes, fvc_side, top, interval
    ):
        geometry = CacheGeometry(
            (line_bytes * ways) << sets_log2, line_bytes, ways=ways
        )
        sets = geometry.num_sets
        entries = max(1, sets << fvc_side if fvc_side >= 0 else sets >> -fvc_side)
        encoder = encoder_for(trace, top)
        replayed = fvc_cell_replay(
            trace, geometry, entries, encoder, occupancy_interval=interval
        )
        assert replayed is not None
        stats, extras = replayed
        config = FvcSystemConfig(occupancy_sample_interval=interval)
        system = FvcSystem(geometry, entries, encoder, config=config)
        system.simulate_batch(trace.records)
        assert stats.as_dict() == system.stats.as_dict()
        oracle_extras = {
            "main_hits": system.main_hits,
            "fvc_hits": system.fvc_hits,
            "fvc_read_hits": system.fvc_read_hits,
            "fvc_write_hits": system.fvc_write_hits,
        }
        if interval:
            oracle_extras["mean_fvc_frequent_fraction"] = (
                system.mean_fvc_frequent_fraction
            )
        assert extras == oracle_extras
