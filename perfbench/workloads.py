"""The benchmark's workloads: which CLI operations each one runs, on which
scenarios, and which layer each is built to load.

Plain data only: this module imports nothing from numpy or eulerdd, so the
set-up probe can load it before it starts its clock.
"""

from __future__ import annotations

from dataclasses import dataclass, field

# delta_t values of every sweep; the per-cycle error of first-order
# decoupling falls as the square of the cycle time, so the fitted slope
# sits near 2.
SWEEP_DELTA_T = (0.02, 0.01, 0.005)


@dataclass(frozen=True)
class Scenario:
    """A built-in scenario at one size, with the cycle length the gates
    expect: |G| times the number of generators."""

    name: str
    n_qubits: int = None
    cycle_length: int = 0

    @property
    def key(self) -> str:
        return self.name if self.n_qubits is None else f"{self.name}-{self.n_qubits}"

    def config_yaml(self) -> str:
        text = f"scenario: {self.name}\n"
        if self.n_qubits is not None:
            text += f"overrides:\n  n_qubits: {self.n_qubits}\n"
        return text


CARR_PURCELL = Scenario("carr-purcell", None, 2)    # |G|=2,  d=2
PAULI_2 = Scenario("pauli", 2, 64)                  # |G|=16, d=4
SYMMETRIC_S3 = Scenario("symmetric-s3", None, 12)   # |G|=6,  d=8
SPIN_FLIP_5 = Scenario("spin-flip", 5, 8)           # |G|=4,  d=32
SPIN_FLIP_6 = Scenario("spin-flip", 6, 8)           # |G|=4,  d=64


@dataclass(frozen=True)
class Op:
    """One user-visible operation.  ``command`` is an eulerdd CLI command,
    or ``import-schedule`` for io.import_schedule on the text that the
    preceding export-schedule printed.  An op with a ``skipped`` reason is
    listed in every report and never run."""

    command: str
    scenario: Scenario
    skipped: str = None

    @property
    def label(self) -> str:
        return f"{self.command} {self.scenario.key}"


@dataclass(frozen=True)
class Workload:
    """Why each workload was chosen, with its measured layer shares, is in
    BENCHMARK.json and perfbench/EVIDENCE.md."""

    name: str
    ops: tuple
    # the functions this workload is built to load; their share of a traced
    # pass is reported as focus.share
    focus: tuple = field(default=())

    @property
    def runnable(self) -> tuple:
        return tuple(op for op in self.ops if op.skipped is None)

    @property
    def scenarios(self) -> tuple:
        """Distinct scenarios the runnable CLI ops build, in first-use order."""
        seen = {}
        for op in self.runnable:
            if op.command != "import-schedule":
                seen.setdefault(op.scenario.key, op.scenario)
        return tuple(seen.values())


OOM_GUARD = ("skipped: oom-guard (commutant_basis takes a full SVD of a "
             "12288x4096 complex stack at d=64 and the process is killed; "
             "re-enable once the commutant is computed without it)")

# Two workloads, one per layer that the planned optimisations target.
# ``verify-algebra`` loads group_theory's commutant, center and irreps (few
# elements, large d); its pauli n=2 round trip through export-schedule and
# io.import_schedule keeps the io layer and its gate exercised at little
# cost.  ``sweep-dynamics`` loads dynamics.average_hamiltonian and barely
# touches group_theory.  The machine's speed drifts over tens of seconds, so
# each run has to be long; a third workload's runs would not fit the time the
# whole benchmark may take, and the pauli n=3 round trip (close_group at
# |G|=64) was left out for that reason.
WORKLOADS = {w.name: w for w in (
    Workload(
        "verify-algebra",
        (Op("verify", CARR_PURCELL), Op("verify", PAULI_2),
         Op("verify", SYMMETRIC_S3), Op("verify", SPIN_FLIP_5),
         Op("verify", SPIN_FLIP_6, skipped=OOM_GUARD),
         Op("export-schedule", PAULI_2), Op("import-schedule", PAULI_2)),
        focus=("group_theory.commutant_basis", "group_theory.center_basis",
               "group_theory.decompose_irreps"),
    ),
    Workload(
        "sweep-dynamics",
        (Op("sweep", SPIN_FLIP_6), Op("sweep", SYMMETRIC_S3)),
        focus=("dynamics.average_hamiltonian",),
    ),
)}
