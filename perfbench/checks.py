"""Correctness checks on one method run, made after its timing.

Each check returns a list of failure messages; an empty list means the
operation is correct. A run that uses up its round budget without
converging is reported through :func:`stop_reason` and is not a failure.
"""
from __future__ import annotations

from covgame import harness
from covgame.game import StrategyProfile, global_value

from perfbench.workloads import DISTRIBUTED, VALUE_GAP

# Absolute tolerance on the potential identity, seconds; the same one the
# paper's acceptance test uses.
PHI_TOLERANCE_S = 1e-6


def _envelope_failures(cfg, value: float) -> list[str]:
    lo, hi = harness.assumption_envelopes(cfg)
    if not (lo <= value <= hi):
        return [f"value {value!r} outside the envelope [{lo!r}, {hi!r}]"]
    return []


def check_distributed(cfg, game, report, result) -> list[str]:
    """Potential identity, independent innovators, certification, envelope."""
    failures: list[str] = []
    phi_prev = global_value(game, StrategyProfile.zeros(game.n_agents))
    for trace in result.traces:
        gained = sum(trace.regrets[k] for k in trace.innovators)
        if abs((trace.phi - phi_prev) - gained) > PHI_TOLERANCE_S:
            failures.append(
                f"round {trace.iteration}: phi rose by {trace.phi - phi_prev!r}, "
                f"adopted regrets sum to {gained!r}"
            )
        phi_prev = trace.phi
        chosen = set(trace.innovators)
        for k in trace.innovators:
            clash = chosen & game.neighbors(k)
            if clash:
                failures.append(
                    f"round {trace.iteration}: innovators {k} and {min(clash)} are neighbors"
                )
                break
    if result.converged_at is not None and not result.certified:
        failures.append(
            f"converged at round {result.converged_at + 1} but not certified "
            f"(worst gain {result.certification.worst_gain!r})"
        )
    return failures + _envelope_failures(cfg, report.value)


def check_centralized(cfg, report) -> list[str]:
    return _envelope_failures(cfg, report.value)


def check_value_gap(distributed: float, centralized: float) -> list[str]:
    """The paper's claim: the distributed value is close to the centralized one."""
    gap = abs(distributed - centralized) / abs(centralized)
    if gap > VALUE_GAP:
        return [f"distributed value {distributed!r} is {gap:.2%} from centralized {centralized!r}"]
    return []


def stop_reason(cfg, method: str, report, detail) -> str:
    """Why a method run stopped, in a few words."""
    if method == DISTRIBUTED:
        certified = "certified" if detail.certified else "uncertified"
        if detail.converged_at is None:
            return f"round budget exhausted, {certified}"
        return f"converged, {certified}"
    if report.iterations >= cfg.centralized.max_evals:
        return "evaluation budget exhausted"
    return "step below min_step"
