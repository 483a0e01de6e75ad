"""Golden hashes of seeded outputs.

The hot paths of `learn` and `twist` are written for speed, but their
arithmetic is fixed: every seeded number the trainers and the grid produce
must stay bit-identical.  Each test hashes the exact bytes of one output and
compares the SHA-256 digest with the one recorded when the arithmetic was
last changed on purpose.  The digests depend on the floating-point results
of the installed NumPy, SciPy and BLAS.  After a deliberate change of
arithmetic, print the new digests with `python tests/test_golden.py`.
"""

import hashlib
import json
import sys
from pathlib import Path

import pytest

from twistsmc import (
    MsvParams,
    NlObsParams,
    SchemeConfig,
    build_msv_fk,
    build_nlobs_fk,
    controlled_smc_train,
    forward_train,
    online_forward,
    simulate_msv,
    simulate_nlobs,
)
from twistsmc.cli import cmd_grid_nlobs
from twistsmc.errors import TwistSmcError

GOLDEN = {
    "nlobs-forward": "9143273d41270d01ec2fce235d95c081d3fd7d6a17700124f8077dfefba8284a",
    "nlobs-backward": "6e84c13a32c4b7c6da646db39495e06e1e58de385a334cbc2433568227dd1d17",
    "nlobs-online": "be20009f49f72013eca95ef2d98438314f8bf2b4fdd08510f183f5a6b689d476",
    "nlobs-fast-online": "d6d1cba8d135325059b5cd17084e04eef4fd310a034a7cc98fde2816dc0b8e3b",
    "msv-forward": "35592329d1ed1509ac2631fc6b7be1d2f322524b429f76e9a4be5abc8fb1e617",
    "msv-backward": "97b010d9e49d9b9e317f88ff3c23838edae6c075d20512ac9101dc07b59eb03d",
    "msv-online": "394b8f6bcda3ddaafff9349b954871befac7a56ea17ac352418214b12c7b6af8",
    "msv-fast-online": "a0bcbc715b2048019fbc48a2dbeef3a62a5dc52d06572e0632154395deb04120",
    "grid-records": "16bd63c8774b1022d2c31980a76e0bbd76d5480364e512409e6b02cf681da223",
}


def _hex(value):
    return None if value is None else float(value).hex()


def _twist(tw) -> list:
    return [tw.A.tobytes().hex(), tw.b.tobytes().hex(), _hex(tw.c)]


def _run_digest(run) -> str:
    payload = {
        "policies": [
            {
                "twists": [_twist(tw) for tw in p.twists],
                "etas": [_twist(e) for e in p.etas],
                "log_eta0": _hex(p.log_eta0),
            }
            for p in run.policies
        ],
        "records": [
            {k: _hex(v) if isinstance(v, float) else v for k, v in rec.items()}
            for rec in run.iteration_records()
        ],
        "failures": [[f.iteration, f.t, f.kind, f.action] for f in run.failures],
    }
    return hashlib.sha256(json.dumps(payload, sort_keys=True).encode()).hexdigest()


def _nlobs_reference():
    # small observation noise: the forward fits are tempered; the grid below
    # also hits the PSD projection and runs that raise
    params = NlObsParams(alpha=0.95, sigma_x2=0.1, sigma_y2=0.005, T=25)
    _, ys = simulate_nlobs(params, 17)
    return build_nlobs_fk(params, ys), SchemeConfig(n_train=64, l_max=3, seed=5)


def _msv_reference():
    params = MsvParams(
        m=[-1.0, -0.5, -1.5], alpha=[0.9, 0.85, 0.95], sigma2=[0.2, 0.3, 0.1], rho=[0.25, -0.3]
    )
    _, ys = simulate_msv(params, 30, 17)
    # few particles for ten features: a fast-online fit hits the full-mode
    # PSD projection
    return build_msv_fk(params, ys), SchemeConfig(n_train=30, l_max=2, mode="full", seed=6)


REFERENCES = {"nlobs": _nlobs_reference, "msv": _msv_reference}
TRAINERS = {
    "forward": forward_train,
    "backward": controlled_smc_train,
    "online": online_forward,
    "fast-online": lambda ref, cfg: online_forward(ref, cfg, fast=True),
}

GRID_CONFIG = {
    "grid": {
        "alphas": [0.95, 0.99],
        "sigma_x2": [0.05],
        "sigma_y2": [0.005, 0.055],
        "T": 40,
        "n": 64,
        "runs": 2,
        "l_max": 3,
        "schemes": ["forward", "backward"],
        "workers": 1,
    },
    "replication": {"seed": 20240801},
}


def trainer_digest(model: str, scheme: str) -> str:
    reference, config = REFERENCES[model]()
    try:
        return _run_digest(TRAINERS[scheme](reference, config))
    except TwistSmcError as exc:
        return f"{type(exc).__name__} t={exc.t}"


def grid_digest(out_dir) -> str:
    cmd_grid_nlobs(GRID_CONFIG, out_dir)
    lines = []
    with open(Path(out_dir) / "records.jsonl") as fh:
        for line in fh:
            rec = json.loads(line)
            del rec["wall_clock"]
            lines.append(json.dumps(rec, sort_keys=True))
    return hashlib.sha256("\n".join(lines).encode()).hexdigest()


@pytest.mark.parametrize("model", sorted(REFERENCES))
@pytest.mark.parametrize("scheme", sorted(TRAINERS))
def test_trainer_outputs_match_golden(model, scheme):
    assert trainer_digest(model, scheme) == GOLDEN[f"{model}-{scheme}"]


def test_grid_records_match_golden(tmp_path):
    assert grid_digest(tmp_path) == GOLDEN["grid-records"]


if __name__ == "__main__":
    import tempfile

    digests = {f"{m}-{s}": trainer_digest(m, s) for m in REFERENCES for s in TRAINERS}
    with tempfile.TemporaryDirectory() as tmp:
        digests["grid-records"] = grid_digest(tmp)
    json.dump(digests, sys.stdout, indent=4)
    print()
