"""The four DetSan detectors and the pinned-scenario suite driver.

This is the heavy half of the sanitizer (the light half is
:mod:`.runtime`): it drives real scenarios through the exec layer under
an active :class:`~.runtime.DetSanContext` and turns what the
instrumentation observed into ordinary
:class:`repro.analysis.core.Finding` objects:

SAN001
    Draws through the :mod:`random` module's hidden global instance,
    and registered streams whose per-process call-site sets diverge —
    both read off the draw ledger payloads the exec layer shipped back
    from every process.
SAN002
    The tie-order perturber: run a pinned scenario with FIFO
    tie-breaking (the reference), re-run it with same-timestamp events
    deterministically shuffled, and byte-compare both the canonical
    trace (via :func:`repro.obs.diff.diff_traces`) and the canonical
    result line.  Any difference is a real tie-order dependency; the
    finding message carries the first divergent record.  Both legs run
    in fresh interpreters (same pinned ``PYTHONHASHSEED``): module
    state such as the radio frame sequence counter survives in-process
    re-runs and would otherwise masquerade as tie-order divergence.
SAN003
    The hash-order perturber: re-execute a pinned scenario under K
    different ``PYTHONHASHSEED`` values in fresh interpreters (hash
    randomization is fixed at startup, so ``subprocess`` — not fork —
    is required) and diff result and trace bytes across runs.
SAN004
    The fork-state differ: module-state snapshots taken by
    :func:`~.runtime.state_snapshot` at fork time and around each
    trial, reported when they drift.

Findings anchor to real source lines — the drawing call site, the
scenario function's ``def``, the mutating trial function — so the
usual ``# lint: ignore[SAN00x]`` suppression and baseline fingerprints
apply unchanged.
"""

from __future__ import annotations

import json
import os
import subprocess
import sys
import tempfile
from dataclasses import dataclass, field
from pathlib import Path
from typing import Any, Dict, List, Mapping, Optional, Sequence, Set, Tuple

from ..core import Finding, Rule, _suppressed_rules
from . import runtime
from .pinned import PinnedScenario, SCENARIOS, resolve_scenario
from .rules import sanitizer_rules_by_id

__all__ = [
    "SanitizeResult",
    "check_hash_order",
    "check_tie_order",
    "drift_findings",
    "ledger_findings",
    "run_suite",
]


# ----------------------------------------------------------------------
# Finding construction: anchor, suppress, fingerprint like static lint
# ----------------------------------------------------------------------
def _display_path(filename: str) -> str:
    path = Path(filename)
    try:
        return path.resolve().relative_to(Path.cwd()).as_posix()
    except (ValueError, OSError):
        return path.as_posix()


def _source_line(filename: str, line: int) -> str:
    try:
        lines = Path(filename).read_text(encoding="utf-8").splitlines()
    except OSError:
        return ""
    if 1 <= line <= len(lines):
        return lines[line - 1]
    return ""


def _make_finding(
    rule: Rule, filename: str, line: int, message: str
) -> Optional[Finding]:
    """A finding anchored at ``filename:line``, or None if suppressed.

    The anchored line's source text becomes the snippet, so the
    fingerprint is the same recipe static findings use and an inline
    ``# lint: ignore[SAN00x]`` on that line suppresses it.
    """
    snippet = _source_line(filename, line)
    suppressed = _suppressed_rules(snippet)
    if suppressed is not None and (not suppressed or rule.rule_id in suppressed):
        return None
    return Finding(
        rule_id=rule.rule_id,
        path=_display_path(filename),
        line=int(line),
        col=0,
        message=message,
        snippet=snippet,
    )


def _parse_site(site: str) -> Tuple[str, int]:
    """``(filename, line)`` from a ``path:line[:func]`` ledger call site."""
    head, _, tail = site.rpartition(":")
    if tail.isdigit():  # "path:line"
        return head, int(tail)
    path, _, line = head.rpartition(":")  # "path:line:func"
    if line.isdigit():
        return path, int(line)
    return site, 1


def _scenario_anchor(scenario: PinnedScenario) -> Tuple[str, int]:
    """The scenario function's ``def`` site (SAN002/SAN003 anchor)."""
    code = getattr(scenario.run, "__code__", None)
    if code is None:
        return __file__, 1
    return code.co_filename, int(code.co_firstlineno)


# ----------------------------------------------------------------------
# SAN001 — the draw ledger
# ----------------------------------------------------------------------
def ledger_findings(payloads: Sequence[Mapping[str, Any]]) -> List[Finding]:
    """SAN001 findings from exported draw-ledger payloads."""
    rule = sanitizer_rules_by_id()["SAN001"]
    findings: List[Finding] = []

    # Draws through the module-level global RNG, by (function, site).
    unregistered: Dict[Tuple[str, str], int] = {}
    for payload in payloads:
        for func, sites in payload.get("unregistered", {}).items():
            for site, count in sites.items():
                key = (func, site)
                unregistered[key] = unregistered.get(key, 0) + int(count)
    for (func, site), count in sorted(unregistered.items()):
        filename, line = _parse_site(site)
        finding = _make_finding(
            rule,
            filename,
            line,
            f"{func}() drawn {count} time(s) from the module-level global "
            "RNG; route the draw through a registered repro.sim.rng stream",
        )
        if finding is not None:
            findings.append(finding)

    # Registered streams whose call-site sets differ between processes
    # doing the same work: the legs of one pinned scenario, or the fork
    # exercise's workers.  Two scenarios may draw one stream name from
    # different sites (a uniform selector and a listening one).
    sites_by_stream: Dict[Tuple[str, str], Dict[int, Set[str]]] = {}
    for payload in payloads:
        pid = int(payload.get("pid", 0))
        scenario = str(payload.get("scenario", ""))
        for stream, sites in payload.get("draws", {}).items():
            by_pid = sites_by_stream.setdefault((scenario, stream), {})
            by_pid.setdefault(pid, set()).update(sites)
    for (scenario, stream), by_pid in sorted(sites_by_stream.items()):
        site_sets = [sites for sites in by_pid.values() if sites]
        if len(site_sets) < 2:
            continue
        union = set().union(*site_sets)
        common = set.intersection(*site_sets)
        divergent = sorted(union - common)
        if not divergent:
            continue
        filename, line = _parse_site(divergent[0])
        finding = _make_finding(
            rule,
            filename,
            line,
            f"stream '{stream}' drawn from differing call-site sets across "
            f"{len(by_pid)} processes"
            + (f" of scenario '{scenario}'" if scenario else "")
            + "; divergent site(s): "
            + ", ".join(divergent[:3]),
        )
        if finding is not None:
            findings.append(finding)
    return findings


# ----------------------------------------------------------------------
# SAN004 — fork-state drift
# ----------------------------------------------------------------------
def drift_findings(payloads: Sequence[Mapping[str, Any]]) -> List[Finding]:
    """SAN004 findings from exported state-drift observations."""
    rule = sanitizer_rules_by_id()["SAN004"]
    findings: List[Finding] = []
    seen: Set[Tuple[str, str, Optional[str]]] = set()
    for payload in payloads:
        for entry in payload.get("drift", []):
            probe = str(entry.get("probe"))
            phase = str(entry.get("phase"))
            site = entry.get("site")
            key = (probe, phase, site)
            if key in seen:
                continue
            seen.add(key)
            if site:
                filename, line = _parse_site(str(site))
            else:
                filename, line = _probe_anchor(probe)
            phase_text = (
                "across one trial call"
                if phase == "trial"
                else "between trials (state inherited dirty at the fork point)"
            )
            finding = _make_finding(
                rule,
                filename,
                line,
                f"module state probe '{probe}' drifted {phase_text}: "
                f"{entry.get('before')} -> {entry.get('after')}",
            )
            if finding is not None:
                findings.append(finding)
    return findings


def _probe_anchor(probe: str) -> Tuple[str, int]:
    """Anchor a site-less drift finding at the probe's definition."""
    fn = runtime._STATE_PROBES.get(probe)
    code = getattr(fn, "__code__", None)
    if code is None:
        return runtime.__file__, 1
    return code.co_filename, int(code.co_firstlineno)


# ----------------------------------------------------------------------
# SAN002 — the event-queue tie perturber
# ----------------------------------------------------------------------
def _pinned_env() -> Dict[str, str]:
    """Subprocess environment for pinned re-execution legs."""
    env = dict(os.environ)
    env["PYTHONPATH"] = os.pathsep.join(p for p in sys.path if p)
    return env


def _run_pinned_leg(
    scenario_spec: str,
    trace: Path,
    ledger: Path,
    tie_seed: int,
    perturb: bool,
    env: Mapping[str, str],
) -> "subprocess.CompletedProcess[bytes]":
    """One sanitized scenario run in a fresh interpreter."""
    cmd = [
        sys.executable,
        "-m",
        "repro.analysis.sanitizer.pinned",
        "--scenario",
        scenario_spec,
        "--trace",
        str(trace),
        "--detsan-seed",
        str(tie_seed),
        "--ledger-out",
        str(ledger),
    ]
    if perturb:
        cmd.append("--perturb-ties")
    return subprocess.run(cmd, capture_output=True, env=dict(env))


def check_tie_order(
    scenario_spec: str,
    san: Optional[runtime.DetSanContext],
    tie_seed: int,
    workdir: Path,
) -> Tuple[List[Finding], Dict[str, Any]]:
    """Run a scenario unperturbed then tie-shuffled; diff both runs.

    Each leg runs in a fresh interpreter (via :mod:`.pinned`'s
    ``__main__``) with the *same* pinned ``PYTHONHASHSEED``, so the only
    variable between them is the tie-break order of same-timestamp
    events.  In-process back-to-back runs would also differ on any
    module state that survives a run — e.g. the radio frame sequence
    counter — which is state drift, not tie sensitivity.  Each leg's
    draw-ledger observations are absorbed into ``san`` (when given) so
    SAN001/SAN004 see them.
    """
    rule = sanitizer_rules_by_id()["SAN002"]
    scenario = resolve_scenario(scenario_spec)
    slug = _slug(scenario_spec)
    env = _pinned_env()
    env["PYTHONHASHSEED"] = "0"  # pinned equal: isolate the tie variable

    legs: Dict[str, Tuple[Path, Path]] = {
        "base": (workdir / f"{slug}.tie-base.jsonl", workdir / f"{slug}.tie-base.ledger.json"),
        "perturbed": (workdir / f"{slug}.tie-pert.jsonl", workdir / f"{slug}.tie-pert.ledger.json"),
    }
    outputs: Dict[str, bytes] = {}
    errors: List[str] = []
    for leg, (trace, ledger) in legs.items():
        proc = _run_pinned_leg(
            scenario_spec, trace, ledger, tie_seed, leg == "perturbed", env
        )
        if proc.returncode != 0:
            errors.append(
                f"{leg} leg failed (exit {proc.returncode}): "
                + proc.stderr.decode("utf-8", "replace").strip()[-500:]
            )
            continue
        outputs[leg] = proc.stdout
        if san is not None:
            _absorb_ledger_file(san, ledger, scenario.name)

    check: Dict[str, Any] = {
        "check": "tie-order",
        "scenario": scenario.name,
        "ok": not errors,
    }
    findings: List[Finding] = []
    filename, line = _scenario_anchor(scenario)
    if errors:
        finding = _make_finding(
            rule, filename, line, f"tie-order re-execution failed: {errors[0]}"
        )
        if finding is not None:
            findings.append(finding)
        return findings, check

    from ...obs.diff import diff_traces

    base_trace, _ = legs["base"]
    pert_trace, _ = legs["perturbed"]
    diff = diff_traces(base_trace, pert_trace)
    check["records"] = diff.records
    check["ok"] = diff.identical and outputs["base"] == outputs["perturbed"]
    if not check["ok"]:
        details: List[str] = []
        if outputs["base"] != outputs["perturbed"]:
            details.append(
                "result changed: "
                f"{outputs['base'].decode('utf-8', 'replace').strip()} vs "
                f"{outputs['perturbed'].decode('utf-8', 'replace').strip()}"
            )
        if not diff.identical and diff.first is not None:
            details.append("; ".join(diff.first.render()))
        finding = _make_finding(
            rule,
            filename,
            line,
            f"scenario '{scenario.name}' depends on event-queue tie order "
            "(same-timestamp shuffle changed the run): " + " | ".join(details),
        )
        if finding is not None:
            findings.append(finding)
    return findings, check


def _absorb_ledger_file(
    san: runtime.DetSanContext, ledger: Path, scenario: str
) -> None:
    """Absorb a pinned leg's exported observations, if it wrote any,
    tagged with the scenario they came from."""
    try:
        payloads = json.loads(ledger.read_text(encoding="utf-8"))
    except (OSError, ValueError):
        return
    for payload in payloads:
        if isinstance(payload, dict):
            san.absorb(dict(payload, scenario=scenario))


def _slug(name: str) -> str:
    return "".join(ch if ch.isalnum() else "_" for ch in name)


# ----------------------------------------------------------------------
# SAN003 — the hash-order perturber
# ----------------------------------------------------------------------
def check_hash_order(
    scenario_spec: str,
    hash_seeds: int,
    workdir: Path,
) -> Tuple[List[Finding], Dict[str, Any]]:
    """Re-execute a scenario under K ``PYTHONHASHSEED`` values; diff bytes.

    Each run is a fresh interpreter via :mod:`.pinned`'s ``__main__``
    (hash randomization cannot change after startup, so fork is
    useless here).  Both the canonical result line on stdout and the
    exported trace must be byte-identical across every seed.
    """
    rule = sanitizer_rules_by_id()["SAN003"]
    scenario = resolve_scenario(scenario_spec)
    runs: List[Tuple[int, bytes, bytes]] = []
    errors: List[str] = []
    env = _pinned_env()
    for seed in range(1, max(1, hash_seeds) + 1):
        trace = workdir / f"{_slug(scenario_spec)}.hash{seed}.jsonl"
        env["PYTHONHASHSEED"] = str(seed)
        proc = subprocess.run(
            [
                sys.executable,
                "-m",
                "repro.analysis.sanitizer.pinned",
                "--scenario",
                scenario_spec,
                "--trace",
                str(trace),
            ],
            capture_output=True,
            env=env,
        )
        if proc.returncode != 0:
            errors.append(
                f"PYTHONHASHSEED={seed} run failed (exit {proc.returncode}): "
                + proc.stderr.decode("utf-8", "replace").strip()[-500:]
            )
            continue
        runs.append((seed, proc.stdout, trace.read_bytes()))

    check: Dict[str, Any] = {
        "check": "hash-order",
        "scenario": scenario.name,
        "seeds": [seed for seed, _, _ in runs],
        "errors": errors,
        "ok": not errors and len(runs) >= 2,
    }
    findings: List[Finding] = []
    filename, line = _scenario_anchor(scenario)
    if errors:
        finding = _make_finding(
            rule, filename, line, f"hash-order re-execution failed: {errors[0]}"
        )
        if finding is not None:
            findings.append(finding)
        return findings, check

    details: List[str] = []
    ref_seed, ref_stdout, ref_trace = runs[0]
    for seed, stdout, trace_bytes in runs[1:]:
        if stdout != ref_stdout:
            details.append(
                f"result differs between PYTHONHASHSEED={ref_seed} and "
                f"{seed}: {ref_stdout.decode('utf-8', 'replace').strip()} vs "
                f"{stdout.decode('utf-8', 'replace').strip()}"
            )
        if trace_bytes != ref_trace:
            details.append(
                f"trace bytes differ between PYTHONHASHSEED={ref_seed} and "
                f"{seed} ({_first_differing_line(ref_trace, trace_bytes)})"
            )
    check["ok"] = not details
    if details:
        finding = _make_finding(
            rule,
            filename,
            line,
            f"scenario '{scenario.name}' is PYTHONHASHSEED-dependent: "
            + " | ".join(details[:2]),
        )
        if finding is not None:
            findings.append(finding)
    return findings, check


def _first_differing_line(left: bytes, right: bytes) -> str:
    for index, (a, b) in enumerate(
        zip(left.splitlines(), right.splitlines())
    ):
        if a != b:
            return (
                f"first divergent line #{index}: "
                f"{a.decode('utf-8', 'replace')[:120]!r} vs "
                f"{b.decode('utf-8', 'replace')[:120]!r}"
            )
    return "traces differ in length"


# ----------------------------------------------------------------------
# Cross-process exercise: fan a pinned sweep over forked workers
# ----------------------------------------------------------------------
def _exercise_fork_paths() -> Dict[str, Any]:
    """Run a small replicated sweep over forked workers.

    Exists to feed the ledger and the fork-state differ cross-process
    data: each worker ships its draw ledger and drift observations back
    through the exec transport, where the active context absorbs them.
    """
    from ...exec.runner import TrialRunner
    from ...experiments.harness import CollisionTrialConfig, replicate

    config = CollisionTrialConfig(
        id_bits=4, n_senders=3, duration=5.0, selector="uniform", seed=0
    )
    runner = TrialRunner(workers=2)
    mean, stddev, results = replicate(config, trials=4, runner=runner)
    return {
        "check": "fork-exercise",
        "trials": len(results),
        "mean": mean,
        "ok": len(results) == 4,
    }


# ----------------------------------------------------------------------
# The suite
# ----------------------------------------------------------------------
@dataclass
class SanitizeResult:
    """Outcome of one ``repro sanitize run``."""

    findings: List[Finding] = field(default_factory=list)
    checks: List[Dict[str, Any]] = field(default_factory=list)

    @property
    def ok(self) -> bool:
        return not self.findings

    def to_json(self) -> Dict[str, Any]:
        return {
            "findings": [finding.to_json() for finding in self.findings],
            "checks": self.checks,
        }


def run_suite(
    scenarios: Optional[Sequence[str]] = None,
    hash_seeds: int = 3,
    tie_seed: int = 0,
    fork_exercise: bool = True,
) -> SanitizeResult:
    """Run every detector over the pinned scenarios.

    ``scenarios`` selects pinned names (or ``module:function``
    references for fixtures); default is all pinned scenarios.
    ``hash_seeds`` is K for the hash-order perturber (0 disables it),
    ``tie_seed`` seeds the deterministic tie shuffle.
    """
    names = list(scenarios) if scenarios else sorted(SCENARIOS)
    result = SanitizeResult()
    with tempfile.TemporaryDirectory(prefix="detsan-") as tmp:
        workdir = Path(tmp)
        with runtime.sanitizing(
            runtime.DetSanContext(seed=tie_seed)
        ) as san:
            for name in names:
                findings, check = check_tie_order(name, san, tie_seed, workdir)
                result.findings.extend(findings)
                result.checks.append(check)
            if fork_exercise:
                result.checks.append(_exercise_fork_paths())
            payloads = san.observations()
            result.findings.extend(ledger_findings(payloads))
            result.findings.extend(drift_findings(payloads))
        if hash_seeds > 0:
            for name in names:
                findings, check = check_hash_order(name, hash_seeds, workdir)
                result.findings.extend(findings)
                result.checks.append(check)
    result.findings.sort(key=lambda f: (f.path, f.line, f.rule_id, f.message))
    _dedupe(result)
    return result


def _dedupe(result: SanitizeResult) -> None:
    seen: Set[Tuple[str, str, int, str]] = set()
    unique: List[Finding] = []
    for finding in result.findings:
        key = (finding.rule_id, finding.path, finding.line, finding.message)
        if key in seen:
            continue
        seen.add(key)
        unique.append(finding)
    result.findings = unique


def describe_checks(result: SanitizeResult) -> str:
    """One status line per executed check, for the CLI summary."""
    lines = []
    for check in result.checks:
        status = "ok" if check.get("ok") else "DIVERGED"
        label = check.get("check", "?")
        scenario = check.get("scenario", "")
        suffix = f" [{scenario}]" if scenario else ""
        lines.append(f"  {label}{suffix}: {status}")
    return "\n".join(lines)


def result_to_json_text(result: SanitizeResult) -> str:
    return json.dumps(result.to_json(), indent=2)
