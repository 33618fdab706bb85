"""Simulator of multiphoton emission from a biased chain of quantum wells.

The pipeline runs in stages: solve the single-well bound states and the
alignment bias, split the degenerate inter-well pairs by tunneling,
derive branching probabilities from dipoles and mode frequencies, run
the photon-counting cascade, and analyze or cross-check the resulting
distribution.

The package needs only the standard library; numpy is an optional
extra. Each public name is imported from its home module on first
access, and numpy inside the functions that build arrays, so each
command loads only the code it runs. The command line starts with
``cli``, ``cascade``, ``errors``, ``oracle`` and ``output``. ``design``,
``levels``, ``simulate`` and ``analyze`` each add their own runner
module, ``_run_<mode>``, loaded when ``cli`` dispatches (the heatmap
writer is in ``_run_analyze``); ``verify`` and ``audit`` run in ``cli``.
``analyze`` adds ``analysis``, ``design`` (or any command given a well)
adds ``eigensolver``, and ``levels`` and the ``physical`` and
``dipole-only`` branching add ``eigensolver`` and ``coupling``. The
physics integrates the piecewise waves in closed form and never loads
numpy. The cascade writes equal-rate rows (the symmetric kind) in closed
form, correctly rounded, at any N and with no array. Other rows walk each start as two
lists split by the parity of the crossing count: Python lists up to
N = 1400 photons (``cascade.LIST_LIMIT``), and above it numpy arrays of
the same layout if numpy is installed, or the same lists if not, with
the same bits either way. So ``simulate`` and ``analyze`` load numpy
only for general rows above the cutoff, and every command runs without
it. The ``verify`` oracles run on Python lists; only the Monte Carlo
sampler (``--samples``) loads ``random``.
Only ``evaluate_wave`` and ``sample_chain_waves``, which return arrays,
need numpy. The records are ``collections.namedtuple`` classes, their
field types in their docstrings, so no command loads ``dataclasses`` or
``typing``.
"""

from importlib import import_module

__version__ = "0.1.0"

# home module -> the public names it defines
_EXPORTS = {
    "analysis": (
        "ConditionalState", "ParityReport", "PurityReport",
        "conditional_state", "conditional_states", "entanglement_entropy",
        "joint_pm", "marginals", "parity_xor", "purity_check",
    ),
    "cascade": (
        "BranchingModel", "InitialExcitation", "JointDistribution",
        "run_cascade",
    ),
    "coupling": (
        "CoupledLevels", "CouplingIntegrals", "DipoleIntegrals",
        "DipoleMatrix", "ModeFrequencies", "SolvedChain", "assemble_dipoles",
        "branching_model", "couple_wells", "coupling_integrals",
        "dipole_integrals", "dipole_matrix", "mode_frequencies", "solve_chain",
        "split_pair",
    ),
    "eigensolver": (
        "BoundState", "DesignResult", "PiecewiseWave", "WellParams",
        "bisect_root", "count_levels", "design_alignment", "evaluate_wave",
        "product_integral", "solve_bound_states", "wave_nodes",
    ),
    "errors": (
        "CqwError", "DomainError", "InfeasibleDesignError", "NumericError",
        "SizeError", "ValidationError",
    ),
    "oracle": (
        "AuditReport", "coherence_audit", "enumerate_paths", "sample_walks",
        "tv_distance",
    ),
}
_HOME = {name: module for module, names in _EXPORTS.items() for name in names}

__all__ = sorted(_HOME)


def __getattr__(name: str):
    module = _HOME.get(name)
    if module is None:
        raise AttributeError(f"module {__name__!r} has no attribute {name!r}")
    value = getattr(import_module(f".{module}", __name__), name)
    globals()[name] = value
    return value


def __dir__() -> list[str]:
    return sorted(set(globals()) | set(__all__))
