"""Batch driver: seeded simulation runs, verification suites, plot data.

Runs are described by a JSON config file with a versioned schema id.  All
artifacts are deterministic functions of (config, seed): no timestamps, keys
sorted, floats written with full round-trip precision.  Exit codes: 0 all
good, 1 a verification suite failed, 2 a usage or config error (a negative
seed among them) or corrupt run artifacts given to ``emit-plotdata``, 3 a
model or runtime failure (a birth kernel above its declared bound, a mark
blow-up), reported as one JSON witness line on stderr.  A failed
``simulate`` removes the output directory it created.
"""
from __future__ import annotations

import argparse
import concurrent.futures
import csv
import functools
import json
import math
import os
import shutil
import sys
from dataclasses import asdict, dataclass
from pathlib import Path

import numpy as np

from . import __version__, rng
from .birth_death import (
    BoundViolationError,
    Trajectory,
    kernel_from_descriptor,
    read_event_log,
    simulate,
    verify_counting_identity,
    verify_domination,
    write_event_log,
)
from .geometry import Box, Configuration, Window
from .marked_process import (
    Observable,
    cadlag_check,
    combine,
    counting_observable,
    mark_sum_observable,
    write_marked_snapshots,
)
from .scales import (
    ScaleParams,
    check_gronwall_inequality,
    check_moment_growth,
    conservative_moment_constants,
)
from .spin_sde import (
    COEFFICIENT_LIBRARY,
    CoefficientSet,
    InitialMarkPolicy,
    IntegrationBlowUpError,
    IntegratorConfig,
    MarkPath,
    check_drift_diffusion_bounds,
    cutoff_convergence_study,
    frozen_mark_deviation,
    integrate_marks,
    integration_grid,
    read_mark_path_csv,
    run_manifest,
)

SCHEMA_ID = "bdspin-run/1"
SUITES = ("domination", "gronwall", "cutoff", "moments", "cadlag", "bounds")


class ConfigError(Exception):
    """Invalid run configuration; the message names the offending field."""


def _get(obj: dict, field: str, path: str, typ=None, default=...):
    if field not in obj:
        if default is not ...:
            return default
        raise ConfigError(f"{path}{field}: missing required field")
    value = obj[field]
    # a JSON true is a Python bool, which is an int: it is not a number here
    if typ is not None and (not isinstance(value, typ)
                            or isinstance(value, bool) and typ is not bool):
        raise ConfigError(f"{path}{field}: expected {typ}, got {type(value).__name__}")
    return value


def _positive(value, name):
    if not isinstance(value, (int, float)) or not math.isfinite(value) or value <= 0:
        raise ConfigError(f"{name}: must be a positive finite number")
    return float(value)


def _nonnegative(value, name):
    if not isinstance(value, (int, float)) or not math.isfinite(value) or value < 0:
        raise ConfigError(f"{name}: must be a nonnegative finite number")
    return float(value)


def _finite(value, name):
    if not isinstance(value, (int, float)) or not math.isfinite(value):
        raise ConfigError(f"{name}: must be a finite number")
    return float(value)


def _numbers(values: list, name: str) -> list:
    """``values`` if each is a number (a JSON true is a bool, not a number)
    and none is NaN, which JSON reads too."""
    if not all(isinstance(v, (int, float)) and not isinstance(v, bool) for v in values):
        raise ConfigError(f"{name}: expected numbers, got {values!r}")
    if any(map(math.isnan, values)):
        raise ConfigError(f"{name}: NaN is not a number, got {values!r}")
    return values


@dataclass
class RunConfig:
    """Fully validated and resolved run description."""

    window: Window
    kernel: object
    death_rate: float
    horizon: float
    initial: Configuration | float  # explicit gamma0, or a Poisson intensity
    init_marks: InitialMarkPolicy
    coeffs: CoefficientSet
    icfg: IntegratorConfig
    scale: ScaleParams
    seed: int
    replicas: int
    mark_stride: int
    snapshot_stride: int
    persist_driving: bool
    raw: dict

    def build_gamma0(self, seed: int) -> Configuration:
        if isinstance(self.initial, Configuration):
            return self.initial
        from .geometry import poisson_configuration

        return poisson_configuration(self.window, self.initial, seed)


def _build_init_marks(spec: dict, window: Window) -> InitialMarkPolicy:
    kind = _get(spec, "kind", "initial_marks.", str)
    if kind == "constant":
        value = _finite(_get(spec, "value", "initial_marks.", (int, float)),
                        "initial_marks.value")
        return InitialMarkPolicy.constant(value)
    if kind == "radial_gaussian":
        amp = _finite(_get(spec, "amplitude", "initial_marks.", (int, float)),
                      "initial_marks.amplitude")
        width = _positive(_get(spec, "width", "initial_marks.", (int, float)),
                          "initial_marks.width")
        center = np.asarray(window.box.hi) / 2.0

        def field(pos: np.ndarray) -> float:
            return amp * math.exp(-(window.distance(pos, center) / width) ** 2)

        return InitialMarkPolicy.from_field(field, name=f"radial_gaussian({amp},{width})")
    raise ConfigError(f"initial_marks.kind: unknown kind {kind!r}")


def _build_coeffs(spec: dict) -> CoefficientSet:
    def piece(group: str, sub: dict):
        kind = _get(sub, "kind", f"coefficients.{group}.", str)
        params = _numbers(_get(sub, "params", f"coefficients.{group}.", list, default=[]),
                          f"coefficients.{group}.params")
        try:
            factory = COEFFICIENT_LIBRARY[group][kind]
        except KeyError:
            raise ConfigError(f"coefficients.{group}.kind: unknown kind {kind!r}") from None
        try:
            return factory(*params)
        except (TypeError, ValueError) as exc:
            raise ConfigError(f"coefficients.{group}.params: {exc}") from None

    radius = _positive(_get(spec, "radius", "coefficients.", (int, float)),
                       "coefficients.radius")
    return CoefficientSet(
        piece("single", _get(spec, "single", "coefficients.", dict)),
        piece("pair", _get(spec, "pair", "coefficients.", dict)),
        piece("diffusion", _get(spec, "diffusion", "coefficients.", dict)),
        radius,
    )


def load_config(path, *, seed_override: int | None = None,
                replicas_override: int | None = None) -> RunConfig:
    try:
        with open(path) as fh:
            raw = json.load(fh)
    except OSError as exc:
        raise ConfigError(f"config: cannot read {path}: {exc}") from None
    except json.JSONDecodeError as exc:
        raise ConfigError(f"config: invalid JSON: {exc}") from None

    schema = _get(raw, "schema", "", str)
    if schema != SCHEMA_ID:
        raise ConfigError(f"schema: expected {SCHEMA_ID!r}, got {schema!r}")

    wspec = _get(raw, "window", "", dict)
    try:
        window = Window(
            _positive(_get(wspec, "side", "window.", (int, float)), "window.side"),
            _get(wspec, "dim", "window.", int),
            _get(wspec, "boundary", "window.", str, default="periodic"),
        )
    except ValueError as exc:
        raise ConfigError(f"window: {exc}") from None

    kspec = _get(raw, "kernel", "", dict)
    # the kernels take their rates and potential params unchecked
    for key in ("z", "b_max"):
        _nonnegative(_get(kspec, key, "kernel.", (int, float), default=0), f"kernel.{key}")
    for key in ("a", "c", "phi"):
        if isinstance(kspec.get(key), dict):
            _numbers(_get(kspec[key], "params", f"kernel.{key}.", list, default=[]),
                     f"kernel.{key}.params")
    try:
        kernel = kernel_from_descriptor(kspec)
    except (KeyError, ValueError, TypeError) as exc:
        raise ConfigError(f"kernel: {exc}") from None

    death_rate = _nonnegative(_get(raw, "death_rate", "", (int, float)), "death_rate")
    horizon = _positive(_get(raw, "horizon", "", (int, float)), "horizon")

    ispec = _get(raw, "initial_configuration", "", dict)
    ikind = _get(ispec, "kind", "initial_configuration.", str)
    if ikind == "poisson":
        initial = _nonnegative(_get(ispec, "intensity", "initial_configuration.", (int, float)),
                               "initial_configuration.intensity")
    elif ikind == "explicit":
        pts = _get(ispec, "points", "initial_configuration.", list)
        for i, rec in enumerate(pts):
            if not isinstance(rec, dict) or "id" not in rec or "position" not in rec:
                raise ConfigError(f"initial_configuration.points[{i}]: needs id and position")
        try:
            initial = Configuration(window, [(rec["id"], rec["position"]) for rec in pts])
        except (ValueError, TypeError) as exc:
            raise ConfigError(f"initial_configuration.points: {exc}") from None
    else:
        raise ConfigError(f"initial_configuration.kind: unknown kind {ikind!r}")

    init_marks = _build_init_marks(_get(raw, "initial_marks", "", dict), window)
    coeffs = _build_coeffs(_get(raw, "coefficients", "", dict))

    ispec2 = _get(raw, "integrator", "", dict)
    try:
        icfg = IntegratorConfig(
            _positive(_get(ispec2, "dt", "integrator.", (int, float)), "integrator.dt"),
            _get(ispec2, "scheme", "integrator.", str, default="euler"),
        )
    except ValueError as exc:
        raise ConfigError(f"integrator: {exc}") from None

    sspec = {"alpha_star": 0.0, **_get(raw, "scale_params", "", dict)}
    # ScaleParams' order checks are false for NaN, so each field must be finite
    try:
        scale = ScaleParams(*(
            _finite(_get(sspec, key, "scale_params.", (int, float)), f"scale_params.{key}")
            for key in ("alpha_star", "alpha_sup", "alpha", "beta", "p", "q")))
    except ValueError as exc:
        raise ConfigError(f"scale_params: {exc}") from None
    if scale.p < coeffs.single.growth_power:
        raise ConfigError("scale_params.p: must be >= the drift growth power "
                          f"{coeffs.single.growth_power}")

    seed = int(_get(raw, "seed", "", int, default=0))
    if seed_override is not None:
        seed = seed_override
    if seed < 0:
        raise ConfigError(f"seed: must be >= 0, got {seed}")
    replicas = int(_get(raw, "replicas", "", int, default=1))
    if replicas_override is not None:
        replicas = replicas_override
    if replicas < 1:
        raise ConfigError("replicas: must be >= 1")

    ospec = _get(raw, "output", "", dict, default={})
    mark_stride = int(_get(ospec, "mark_stride", "output.", int, default=1))
    snapshot_stride = int(_get(ospec, "snapshot_stride", "output.", int, default=1))
    if mark_stride < 1 or snapshot_stride < 1:
        raise ConfigError("output: strides must be >= 1")
    persist_driving = bool(_get(ospec, "persist_driving", "output.", bool, default=False))

    resolved = dict(raw)
    resolved["seed"] = seed
    resolved["replicas"] = replicas
    return RunConfig(window, kernel, death_rate, horizon, initial, init_marks, coeffs,
                     icfg, scale, seed, replicas, mark_stride, snapshot_stride,
                     persist_driving, resolved)


def _make_out_dir(out: Path) -> None:
    try:
        out.mkdir(parents=True, exist_ok=True)
    except OSError as exc:  # a file is in the way
        raise ConfigError(f"out: cannot create directory {out}: {exc.strerror}") from None


# -- simulate -------------------------------------------------------------------


def _run_one_replica(config_path: str, out_dir: str, replica: int,
                     seed_override: int | None, replicas_override: int | None) -> str:
    cfg = load_config(config_path, seed_override=seed_override,
                      replicas_override=replicas_override)
    replica_seed = cfg.seed if cfg.replicas == 1 else rng.replica_seed(cfg.seed, replica)
    out = Path(out_dir)

    gamma0 = cfg.build_gamma0(replica_seed)
    traj = simulate(gamma0, cfg.kernel, cfg.death_rate, cfg.horizon, replica_seed)
    path = integrate_marks(traj, cfg.coeffs, cfg.init_marks, cfg.icfg, replica_seed)
    marked = combine(traj, path)

    write_event_log(traj, out / "events.jsonl", include_driving=cfg.persist_driving)
    path.to_csv(out / "marks.csv", stride=cfg.mark_stride)
    write_marked_snapshots(out / "snapshots.jsonl", marked, stride=cfg.snapshot_stride)

    manifest = {
        "schema": SCHEMA_ID,
        "package_version": __version__,
        "config": cfg.raw,
        "replica": {"index": replica, "seed": replica_seed},
        "derived": {
            "b_max": cfg.kernel.b_max,
            "window_volume": cfg.window.volume(),
            "initial_points": len(gamma0),
            "events": len(traj.events),
            "phantom_size": len(traj.phantom_ids()),
            "grid_points": len(path.grid),
            **run_manifest(traj, cfg.coeffs, cfg.init_marks, cfg.icfg, replica_seed),
        },
    }
    with open(out / "manifest.json", "w") as fh:
        json.dump(manifest, fh, sort_keys=True, indent=1)
        fh.write("\n")
    return out_dir


def cmd_simulate(args) -> int:
    cfg = load_config(args.config, seed_override=args.seed,
                      replicas_override=args.replicas)
    out = Path(args.out)
    created = not out.exists()
    _make_out_dir(out)
    try:
        _simulate_into(args, cfg, out)
    except BaseException:
        # a failed run must not leave a directory that looks like a run
        if created:
            shutil.rmtree(out, ignore_errors=True)
        raise
    return 0


def _simulate_into(args, cfg: RunConfig, out: Path) -> None:
    if cfg.replicas == 1:
        dirs = [(0, str(out))]
    else:
        dirs = [(r, str(out / f"replica_{r:04d}")) for r in range(cfg.replicas)]
        # a blocked replica directory fails the run before any replica writes
        for _, d in dirs:
            _make_out_dir(Path(d))
    # a fork pool starts all its workers at the first submit
    jobs = min(args.jobs or os.cpu_count() or 1, len(dirs))
    if jobs == 1:
        for r, d in dirs:
            _run_one_replica(args.config, d, r, args.seed, args.replicas)
    else:
        with concurrent.futures.ProcessPoolExecutor(max_workers=jobs) as pool:
            futures = [
                pool.submit(_run_one_replica, args.config, d, r, args.seed, args.replicas)
                for r, d in dirs
            ]
            for fut in futures:
                fut.result()
    print(f"wrote artifacts to {out}" if cfg.replicas == 1
          else f"wrote {cfg.replicas} replicas to {out}")


# -- verify ---------------------------------------------------------------------


def _nested_boxes(window: Window) -> list[Box]:
    fractions = np.linspace(0.3, 1.0, 4)
    return [window.box.scaled(float(f)) for f in fractions]


def _random_observables(window: Window, count: int, seed: int) -> list[Observable]:
    gen = rng.keyed_generator(seed, rng.SAMPLING)
    out = []
    for i in range(count):
        lo = window.side * gen.random(window.dim) * 0.6
        hi = np.minimum(lo + window.side * (0.2 + 0.6 * gen.random(window.dim)),
                        window.side)
        box = Box(tuple(float(v) for v in lo), tuple(float(v) for v in hi))
        if i % 2 == 0:
            out.append(counting_observable(box, name=f"count_{i}"))
        else:
            out.append(mark_sum_observable(box, name=f"marks_{i}"))
    return out


def run_suite(cfg: RunConfig, suite: str) -> dict:
    """Run one verification suite; returns a JSON-ready report with 'passed'."""
    seed = cfg.seed
    if suite == "bounds":
        report = check_drift_diffusion_bounds(cfg.coeffs, sample_size=10_000, seed=seed)
        return {"suite": suite, **asdict(report)}

    gamma0 = cfg.build_gamma0(seed)
    traj = simulate(gamma0, cfg.kernel, cfg.death_rate, cfg.horizon, seed)

    if suite == "domination":
        report = verify_domination(traj)
        ok_identity = verify_counting_identity(traj)
        obj = asdict(report)
        obj["counting_identity"] = ok_identity
        obj["passed"] = obj["passed"] and ok_identity
        return {"suite": suite, **obj}

    if suite == "gronwall":
        gen = rng.keyed_generator(seed, rng.SAMPLING)
        b_vec = np.abs(gen.standard_normal(len(traj.phantom_xy)))
        report = check_gronwall_inequality(
            traj.window, traj.phantom_xy, coupling_b=0.2, growth_k=1.0, b_vec=b_vec,
            horizon=min(cfg.horizon, 0.5), alpha=cfg.scale.alpha, beta=cfg.scale.beta,
            q=cfg.scale.q, radius=cfg.coeffs.radius,
            alpha_star=cfg.scale.alpha_star, alpha_sup=cfg.scale.alpha_sup,
        )
        return {"suite": suite, **asdict(report)}

    if suite == "cutoff":
        report = cutoff_convergence_study(
            traj, cfg.coeffs, cfg.init_marks, cfg.icfg, _nested_boxes(cfg.window),
            cfg.scale.beta, cfg.scale.p,
            seeds=[rng.replica_seed(seed, r) for r in range(max(cfg.replicas, 5))],
        )
        obj = asdict(report)
        obj["passed"] = report.nonincreasing or report.spearman_rho < -0.8
        return {"suite": suite, **obj}

    if suite == "moments":
        paths = [
            integrate_marks(traj, cfg.coeffs, cfg.init_marks, cfg.icfg,
                            rng.replica_seed(seed, r))
            for r in range(max(cfg.replicas, 8))
        ]
        c1, c2 = conservative_moment_constants(cfg.coeffs, cfg.scale.p, cfg.horizon)
        report = check_moment_growth(paths, traj, cfg.coeffs, cfg.scale, c1, c2)
        return {"suite": suite, **asdict(report)}

    if suite == "cadlag":
        path = integrate_marks(traj, cfg.coeffs, cfg.init_marks, cfg.icfg, seed)
        frozen = frozen_mark_deviation(path, traj)
        marked = combine(traj, path)
        reports = []
        passed = frozen == 0.0
        for g in _random_observables(cfg.window, 8, seed):
            rep = cadlag_check(marked, g, eps_t=cfg.icfg.dt)
            passed = passed and rep.passed
            reports.append({"observable": g.name, **asdict(rep)})
        return {"suite": suite, "passed": passed, "frozen_mark_deviation": frozen,
                "observables": reports}

    raise ConfigError(f"suite: unknown suite {suite!r}")


def cmd_verify(args) -> int:
    cfg = load_config(args.config, seed_override=args.seed,
                      replicas_override=args.replicas)
    suites = [s.strip() for s in args.suite.split(",") if s.strip()]
    if not suites:
        raise ConfigError(f"suite: no suite named (valid: {', '.join(SUITES)})")
    for i, s in enumerate(suites):
        if s not in SUITES:
            raise ConfigError(f"suite: unknown suite {s!r} (valid: {', '.join(SUITES)})")
        if s in suites[:i]:
            raise ConfigError(f"suite: {s!r} is named twice")
    out = Path(args.out)
    _make_out_dir(out)
    all_passed = True
    for s in suites:
        report = run_suite(cfg, s)
        with open(out / f"{s}_report.json", "w") as fh:
            json.dump(report, fh, sort_keys=True, indent=1)
            fh.write("\n")
        status = "pass" if report["passed"] else "FAIL"
        print(f"{s}: {status}")
        if not report["passed"]:
            all_passed = False
            witness = {k: v for k, v in report.items() if k not in ("suite", "passed")}
            print(f"  witness: {json.dumps(witness, default=str)[:500]}", file=sys.stderr)
    return 0 if all_passed else 1


# -- emit-plotdata -----------------------------------------------------------------


def _load_run_dir(run_dir: Path):
    events_path = run_dir / "events.jsonl"
    marks_path = run_dir / "marks.csv"
    # a run directory without its manifest is not a finished run
    for artifact in (events_path, marks_path, run_dir / "manifest.json"):
        if not artifact.exists():
            raise FileNotFoundError(f"missing run artifact {artifact}")
    header, events = read_event_log(events_path)
    for key in ("window", "gamma0", "kernel", "m", "T", "seed"):
        if key not in header:
            raise ValueError(f"header has no {key!r}")
    try:
        window = Window.from_descriptor(header["window"])
        gamma0 = Configuration.from_json_obj(window, header["gamma0"])
        kernel = kernel_from_descriptor(header["kernel"])
        traj = Trajectory(window, gamma0, kernel, header["m"], header["T"], header["seed"],
                          events)
    except (KeyError, TypeError, AttributeError) as exc:
        raise ValueError(f"header window, gamma0 or kernel is malformed ({exc!r})") from None
    marks = read_mark_path_csv(marks_path)
    if not marks.ids:  # an empty phantom: marks.csv has no rows to give the grid
        dt, stride = _manifest_dt_stride(run_dir / "manifest.json")
        grid = integration_grid(traj, dt)[::stride]
        marks = MarkPath(grid, [], np.zeros((len(grid), 0)))
    return combine(traj, marks)


def _manifest_dt_stride(manifest_path: Path) -> tuple[float, int]:
    """The integrator dt and the mark stride of the run config in the
    manifest: ``marks.csv`` holds every ``stride``-th time of the grid."""
    try:
        with open(manifest_path) as fh:
            config = json.load(fh)["config"]
        dt = config["integrator"]["dt"]
        stride = config.get("output", {}).get("mark_stride", 1)
        if not (dt > 0 and isinstance(stride, int) and stride >= 1):
            raise ValueError(f"dt {dt!r}, mark_stride {stride!r}")
    except (ValueError, KeyError, TypeError, AttributeError) as exc:
        raise ValueError(f"manifest.json: no usable integrator dt and mark stride "
                         f"({exc})") from None
    return dt, stride


def _observable_from_spec(spec: dict, i: int) -> Observable:
    if not isinstance(spec, dict):
        raise ConfigError(f"observables[{i}]: expected an object")
    name = _get(spec, "name", f"observables[{i}].", str)
    # the name becomes <name>.csv and <name>_aggregate.csv inside --out
    if name in ("", ".", "..") or any(c in name for c in "/\\\0"):
        raise ConfigError(f"observables[{i}].name: {name!r} is not a plain file name")
    kind = _get(spec, "kind", f"observables[{i}].", str)
    bspec = _get(spec, "box", f"observables[{i}].", dict)
    lo, hi = (_numbers(_get(bspec, key, f"observables[{i}].box.", list),
                       f"observables[{i}].box.{key}") for key in ("lo", "hi"))
    try:
        box = Box(tuple(lo), tuple(hi))
    except ValueError as exc:
        raise ConfigError(f"observables[{i}].box: {exc}") from None
    if kind == "count":
        return counting_observable(box, name=name)
    if kind == "mark_sum":
        return mark_sum_observable(box, name=name)
    raise ConfigError(f"observables[{i}].kind: unknown kind {kind!r}")


def cmd_emit_plotdata(args) -> int:
    artifacts = Path(args.artifacts)
    if not artifacts.is_dir():
        problem = "is not a directory" if artifacts.exists() else "does not exist"
        print(f"artifacts directory {artifacts} {problem}", file=sys.stderr)
        return 2
    try:
        with open(args.observables) as fh:
            specs = json.load(fh)
    except OSError as exc:
        raise ConfigError(f"observables: cannot read {args.observables}: {exc}") from None
    except json.JSONDecodeError as exc:
        raise ConfigError(f"observables: invalid JSON: {exc}") from None
    if not isinstance(specs, list):
        raise ConfigError("observables: expected a list of observable specs")
    observables = [_observable_from_spec(s, i) for i, s in enumerate(specs)]
    writer_of: dict[str, int] = {}
    for i, g in enumerate(observables):
        for name in (f"{g.name}.csv", f"{g.name}_aggregate.csv"):
            if name in writer_of:
                raise ConfigError(f"observables[{i}].name: {g.name!r} would overwrite "
                                  f"{name} of observables[{writer_of[name]}]")
            writer_of[name] = i

    replica_dirs = sorted(d for d in artifacts.iterdir()
                          if d.is_dir() and d.name.startswith("replica_"))
    if not replica_dirs:
        replica_dirs = [artifacts]
    runs = []
    for d in replica_dirs:
        try:
            runs.append(_load_run_dir(d))
        except FileNotFoundError as exc:
            print(str(exc), file=sys.stderr)
            return 2
        except ValueError as exc:
            print(f"corrupt run directory {d}: {exc}", file=sys.stderr)
            return 2
    dim = runs[0].base.window.dim
    for i, g in enumerate(observables):
        if g.support.dim != dim:
            raise ConfigError(f"observables[{i}].box: {g.support.dim}-d, the run is {dim}-d")
    # only a run that loaded, with observables it can pair, gets an output directory
    out = Path(args.out)
    _make_out_dir(out)
    if not observables:
        print("empty observables spec: nothing to emit")
        return 0

    # each replica's grid refines the shared dt lattice with its own event
    # times; aggregation happens on the times common to all replicas (each
    # grid is strictly increasing: the mark path reader rejects any other)
    shared_grid = functools.reduce(functools.partial(np.intersect1d, assume_unique=True),
                                   [mt.grid for mt in runs])
    shared_rows = [np.searchsorted(mt.grid, shared_grid) for mt in runs]
    for g in observables:
        rows = [mt.observable_series(g) for mt in runs]
        with open(out / f"{g.name}.csv", "w", newline="") as fh:
            writer = csv.writer(fh)
            writer.writerow(["replica", "t", "observable_name", "value"])
            for r, (mt, row) in enumerate(zip(runs, rows)):
                for t, v in zip(mt.grid, row):
                    writer.writerow([r, repr(float(t)), g.name, repr(float(v))])
        shared_vals = np.stack([row[at] for row, at in zip(rows, shared_rows)])
        mean = shared_vals.mean(axis=0)
        stderr = (shared_vals.std(axis=0, ddof=1) / math.sqrt(len(runs))
                  if len(runs) > 1 else np.zeros_like(mean))
        with open(out / f"{g.name}_aggregate.csv", "w", newline="") as fh:
            writer = csv.writer(fh)
            writer.writerow(["t", "observable_name", "mean", "stderr"])
            for t, m, s in zip(shared_grid, mean, stderr):
                writer.writerow([repr(float(t)), g.name, repr(float(m)), repr(float(s))])
    print(f"wrote plot data for {len(observables)} observables to {out}")
    return 0


# -- entry point -----------------------------------------------------------------


def _jobs(text: str) -> int:
    jobs = int(text)
    if jobs < 1:
        raise argparse.ArgumentTypeError(f"must be >= 1, got {jobs}")
    return jobs


def build_parser() -> argparse.ArgumentParser:
    parser = argparse.ArgumentParser(
        prog="bdspin",
        description="Spatial birth-and-death dynamics with coupled spin diffusions",
    )
    sub = parser.add_subparsers(dest="command", required=True)

    sim = sub.add_parser("simulate", help="run a seeded simulation")
    sim.add_argument("--config", required=True)
    sim.add_argument("--seed", type=int, default=None)
    sim.add_argument("--replicas", type=int, default=None)
    sim.add_argument("--out", required=True)
    sim.add_argument("--jobs", type=_jobs, default=None,
                     help="replica worker processes, at least 1 (default: cores)")
    sim.set_defaults(func=cmd_simulate)

    ver = sub.add_parser("verify", help="run verification suites")
    ver.add_argument("--config", required=True)
    ver.add_argument("--seed", type=int, default=None)
    ver.add_argument("--replicas", type=int, default=None)
    ver.add_argument("--out", required=True)
    ver.add_argument("--suite", required=True,
                     help=f"comma-separated from: {', '.join(SUITES)}")
    ver.set_defaults(func=cmd_verify)

    emit = sub.add_parser("emit-plotdata", help="extract observable time series")
    emit.add_argument("--artifacts", required=True)
    emit.add_argument("--observables", required=True)
    emit.add_argument("--out", required=True)
    emit.set_defaults(func=cmd_emit_plotdata)
    return parser


def main(argv=None) -> int:
    parser = build_parser()
    args = parser.parse_args(argv)
    try:
        return args.func(args)
    except ConfigError as exc:
        print(f"config error: {exc}", file=sys.stderr)
        return 2
    except (BoundViolationError, IntegrationBlowUpError) as exc:
        witness = {"error": type(exc).__name__, "message": str(exc), **exc.witness}
        print(json.dumps(witness, sort_keys=True), file=sys.stderr)
        return 3


if __name__ == "__main__":
    sys.exit(main())
