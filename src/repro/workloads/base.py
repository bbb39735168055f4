"""Workload base class and input-scale plumbing."""

from __future__ import annotations

from abc import ABC, abstractmethod
from dataclasses import dataclass
from typing import Callable, Dict, List, Optional, Tuple

from repro.common.errors import WorkloadError
from repro.common.rng import make_rng
from repro.mem.layout import DEFAULT_LAYOUT, AddressSpaceLayout
from repro.mem.space import AddressSpace
from repro.trace.trace import Trace


@dataclass(frozen=True)
class WorkloadInput:
    """One input scale of a workload (the paper's test/train/ref).

    ``params`` feeds the workload's ``_run``; ``data_seed`` varies the
    *input data* between scales, which is what makes the large
    (pointer-valued) frequent values input-sensitive in Table 2 while
    the small ones stay put.
    """

    name: str
    params: Dict[str, int]
    data_seed: int


class Workload(ABC):
    """A deterministic program over a simulated address space.

    Subclasses define :attr:`name`, :attr:`spec_analog`, :meth:`inputs`
    and :meth:`_run`.  Everything else — tracing, sampling hooks, input
    lookup — is shared here.
    """

    #: Registry key, e.g. ``"gcc"``.
    name: str = ""
    #: The SPEC95 benchmark this stands in for, e.g. ``"126.gcc"``.
    spec_analog: str = ""
    #: True for the six SPECint95 programs with frequent value locality.
    exhibits_fvl: bool = True

    # ------------------------------------------------------------------
    @abstractmethod
    def inputs(self) -> Dict[str, WorkloadInput]:
        """The available input scales keyed by name (test/train/ref)."""

    @abstractmethod
    def _run(self, space: AddressSpace, inp: WorkloadInput) -> None:
        """Execute the program against ``space``."""

    # ------------------------------------------------------------------
    def input_named(self, input_name: str) -> WorkloadInput:
        """Look up one input scale, with a helpful error."""
        table = self.inputs()
        try:
            return table[input_name]
        except KeyError:
            known = ", ".join(sorted(table))
            raise WorkloadError(
                f"{self.name}: unknown input {input_name!r} (have: {known})"
            ) from None

    def execute(
        self,
        input_name: str = "ref",
        record: Optional[List[Tuple[int, int, int]]] = None,
        sample_interval: int = 0,
        sampler: Optional[Callable] = None,
        layout: AddressSpaceLayout = DEFAULT_LAYOUT,
    ) -> AddressSpace:
        """Run the program; returns the final address space.

        ``record`` collects the trace; ``sampler`` (with
        ``sample_interval``) observes live memory during the run.
        """
        inp = self.input_named(input_name)
        space = AddressSpace(
            record=record,
            layout=layout,
            sample_interval=sample_interval,
            sampler=sampler,
        )
        self._run(space, inp)
        return space

    def generate_trace(self, input_name: str = "ref") -> Trace:
        """Run the program and return its full memory-reference trace,
        with the dead ranges its frees and stack pops recorded."""
        record: List[Tuple[int, int, int]] = []
        space = self.execute(input_name, record=record)
        return Trace(
            record,
            workload=self.name,
            input_name=input_name,
            dead_ranges=space.memory.dead_ranges,
        )

    # Helpers for subclasses -----------------------------------------------
    def _rng(self, inp: WorkloadInput, *extra: object):
        """A private RNG stream for this (workload, input, purpose)."""
        return make_rng(self.name, inp.name, inp.data_seed, *extra)

    def __repr__(self) -> str:
        return f"<Workload {self.name} ({self.spec_analog})>"
