"""Simulator of multiphoton emission from a biased chain of quantum wells.

The pipeline runs in stages: solve the single-well bound states and the
alignment bias, split the degenerate inter-well pairs by tunneling,
derive branching probabilities from dipoles and mode frequencies, run
the photon-counting cascade, and analyze or cross-check the resulting
distribution.

The package needs only the standard library; numpy is an optional
extra, and only ``evaluate_wave`` and ``sample_chain_waves``, which
return arrays, need it. Each public name is imported from its home
module on first access, so importing the package loads no other module.
README (Start-up) lists the modules each command loads.
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
