"""The ``levels`` command: the coupled pair and its branching."""

from __future__ import annotations

from .cli import RunConfig, _emit, _resolve_model, _solve_chain
from .output import stable_json


def run(config: RunConfig) -> int:
    chain = _solve_chain(config)
    model = _resolve_model(config, chain)
    # the chain is scale-free: energies scale by 1/d^2 and sit above the
    # floor v2, dipoles scale by d, and the rest does not scale
    d, v2 = config.well.d, config.well.v2
    scale = d * d
    split = chain.split
    delta_e = split.delta_e / scale
    coupled = {
        "bias": chain.bias / scale,
        "spacing": chain.freqs.omega_zero / scale,
        **split._replace(
            e_plus=split.e_plus / scale + v2, e_minus=split.e_minus / scale + v2,
            delta_e=delta_e,
        )._asdict(),
        "dipoles": {name: dip * d for name, dip in chain.dipoles._asdict().items()},
    }
    branching_doc = {
        "p_hh": model.p_hh,
        "p_hl": model.p_hl,
        "p_lh": model.p_lh,
        "p_ll": model.p_ll,
        **{name: omega / scale for name, omega in chain.freqs._asdict().items()},
        "delta_e": delta_e,
        "weighting": model.weighting,
    }
    _emit(config, [
        ("coupled.json", stable_json(coupled)),
        ("branching.json", stable_json(branching_doc)),
    ])
    return 0
