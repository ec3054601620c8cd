"""eulerdd: Eulerian dynamical decoupling with bounded controls.

Compiles finite decoupling groups into bounded-strength Eulerian pulse
schedules, simulates the resulting joint system-environment dynamics, and
verifies the symmetrization, fault-robustness, and noiseless-subsystem
structure numerically.
"""

from .analysis import (Scenario, builtin_scenarios, get_scenario,
                       noise_suppression_check, scaling_study, verify_theorem)
from .cayley import EulerPath, eulerian_cycle, validate_path
from .dynamics import (DriftModel, average_hamiltonian, decoupling_distance,
                       q_map, residual_error, simulate_cycles)
from .group_theory import (Group, UnitaryRep, center_basis, close_group,
                           decompose_irreps, pi_G)
from .pulses import (ControlSchedule, PulseProfile, apply_fault,
                     bangbang_schedule, constant_profile, eulerian_schedule,
                     piecewise_profile)

__version__ = "0.1.0"
