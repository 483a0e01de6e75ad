"""Per-layer metrics: which wrapped spans and counters make up each metric
that BENCHMARK.json lists under `per_layer`.

Layers are the package's modules.  A metric `<layer>.<name>.<field>` sums
the spans in GROUPS[<layer>.<name>]; `calls` counts entries and `self_s`
adds self time.  Counters come from hooks at the same boundaries.  Every
value is per traced round.
"""

from __future__ import annotations

import dataclasses

from spans import Hook, Tracer
from twistsmc.errors import SingularDesign, TwistSmcError

LAYERS = ("fk", "twist", "learn", "schemes", "models", "pmmh", "cli", "rng")

GROUPS = {
    "fk.run_smc": ("fk.run_smc",),
    "fk.resample": ("fk.resample",),
    "fk.ess": ("fk.ess",),
    "fk.log_sum_exp": ("fk.log_sum_exp",),
    "twist.kernel_build": ("twist._TwistedKernel.__init__",),
    "twist.integrate": ("twist.integrate_twist_affine", "twist.twist_gaussian"),
    "twist.psd_floor": ("twist.psd_floor",),
    "twist.twist_init": ("twist.LogQuadraticTwist.__init__",),
    "twist.log_values": ("twist.LogQuadraticTwist.log_values",),
    "twist.sample": ("twist._TwistedKernel.sample",),
    "learn.fit": ("learn.fit_log_quadratic",),
    "learn.temper": ("learn.temper_exponent",),
    "schemes.forward_train": ("schemes.forward_train",),
    "schemes.controlled_smc_train": ("schemes.controlled_smc_train",),
    "schemes.online_forward": ("schemes.online_forward",),
    "models.build": ("models.build_msv_fk", "models.build_nlobs_fk", "models.build_lgssm_fk"),
    "models.log_potential": ("models.log_potential",),
    "pmmh.estimator": ("pmmh.estimator",),
    "pmmh.pmmh_run": ("pmmh.pmmh_run",),
    "pmmh.variance_window": ("pmmh.eval_variance_window",),
    "cli.cmd_grid_nlobs": ("cli.cmd_grid_nlobs",),
    "rng.generator": ("rng.generator",),
}


def _count_projection(args, kwargs, result, exc, tracer):
    if exc is None and result is not args[0]:
        tracer.bump("twist.psd_floor.projected")


def _count_draws(args, kwargs, result, exc, tracer):
    if exc is None:
        tracer.bump("twist.sample.draws", args[1].shape[0])


def _count_singular(args, kwargs, result, exc, tracer):
    if isinstance(exc, SingularDesign):
        tracer.bump("learn.fit.singular")


def _count_tempered(args, kwargs, result, exc, tracer):
    if exc is None and result.alpha < 1.0:
        tracer.bump("learn.temper.tempered")


def _count_estimator_failure(args, kwargs, result, exc, tracer):
    if isinstance(exc, TwistSmcError):
        tracer.bump("pmmh.estimator.failed")


def _wrap_potential(reference, tracer):
    """A model's log-potential is a closure, not a module binding: wrap it on
    the reference a `build_*_fk` call returns."""
    fk = dataclasses.replace(
        reference.fk, log_potential=tracer.wrap("models.log_potential", reference.fk.log_potential)
    )
    return dataclasses.replace(reference, fk=fk)


def _wrap_estimator(estimator, tracer):
    return tracer.wrap("pmmh.estimator", estimator)


def make_tracer() -> Tracer:
    hooks = {
        "twist.psd_floor": Hook(on_call=_count_projection),
        "twist._TwistedKernel.sample": Hook(on_call=_count_draws),
        "learn.fit_log_quadratic": Hook(on_call=_count_singular),
        "learn.temper_exponent": Hook(on_call=_count_tempered),
        "pmmh.estimator": Hook(on_call=_count_estimator_failure),
        "pmmh.smc_estimator": Hook(wrap_result=_wrap_estimator),
        "pmmh.trained_estimator": Hook(wrap_result=_wrap_estimator),
    }
    for builder in GROUPS["models.build"]:
        hooks[builder] = Hook(wrap_result=_wrap_potential)
    return Tracer(modules=LAYERS, extra_classes={"twist": ("_TwistedKernel",)}, hooks=hooks)


def per_layer(tracer: Tracer, rounds: int, overhead_s: float) -> dict[str, float]:
    values: dict[str, float] = {}
    for group, names in GROUPS.items():
        stats = [tracer.stats[n] for n in names if n in tracer.stats]
        values[f"{group}.calls"] = sum(s.calls for s in stats) / rounds
        values[f"{group}.self_s"] = sum(s.self_s for s in stats) / rounds
    for counter in (
        "twist.psd_floor.projected",
        "twist.sample.draws",
        "learn.fit.singular",
        "learn.temper.tempered",
        "pmmh.estimator.failed",
    ):
        values[counter] = tracer.counters.get(counter, 0) / rounds
    values["trace.overhead_s"] = overhead_s
    return values


def span_table(tracer: Tracer, rounds: int) -> dict[str, dict]:
    """Every span's calls, self and total seconds per round, busiest first."""
    rows = sorted(tracer.stats.items(), key=lambda kv: -kv[1].self_s)
    return {
        name: {"calls": s.calls / rounds, "self_s": s.self_s / rounds, "total_s": s.total_s / rounds}
        for name, s in rows
    }
