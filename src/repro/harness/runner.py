"""Factorial experiment runner: RunConfig cells in, one run table out.

This is the execution engine every harness surface shares.  A single
cell (:class:`~.runconfig.RunConfig`) runs through :func:`execute_cell`,
which drives the same ``simulate_cluster``/serve-engine paths as
``cli cluster``/``cli serve`` and folds the frame-economics columns
(:mod:`.pricing`) into the aggregate.  ``run_cluster`` and
``run_frontier`` are thin adapters over it, so a cell executed from a
table file is bit-for-bit the run the standalone commands produce.

An :class:`ExperimentTable` (JSON, or TOML on Python 3.11+) names a base
cell plus factorial ``axes``; :func:`run_table` expands axes x
repetitions into cells (muBench-style run tables), executes each one,
persists a per-cell raw artifact under ``<out>/cells/``, and writes the
aggregated strict-JSON run table ``BENCH_experiment.json`` plus a CSV
twin.  Every cell artifact records its config hash, so ``--resume``
re-executes only cells whose artifact is missing or whose config
changed.
"""

from __future__ import annotations

import itertools
import json
import time
from dataclasses import dataclass
from pathlib import Path

from ..cluster import Autoscaler, simulate_cluster
from ..workloads import apply_slo
from .cluster import DEFAULT_CLUSTER_MIX, quality_summary
from .pricing import frame_economics
from .reporting import jsonable, write_bench_json
from .runconfig import RunConfig, RunConfigError
from .serve import run_serve

try:
    import tomllib  # Python 3.11+
except ImportError:  # pragma: no cover - py3.10 CI leg
    tomllib = None

__all__ = ["CELL_MODES", "CellResult", "ExperimentTable", "execute_cell",
           "run_table"]

# The RunConfig modes execute_cell runs (realserve cells need a live
# server and a loadgen: see cli serve-live / cli loadgen).
CELL_MODES = ("serve", "cluster")


@dataclass(frozen=True)
class CellResult:
    """Everything one executed cell produced.

    ``rows`` are the run's detail rows (per-worker for cluster cells,
    per-session for serve cells), ``summary`` the aggregate dict the
    standalone commands print, and ``row`` the flat run-table row —
    frontier-shaped for cluster cells — with the J/frame and $/frame
    economics columns folded in.  ``mix_label`` names the resolved
    workload mix (``"vr-lego:4,dolly-chair:2"``; empty for legacy
    scene-cycling serves).
    """

    cell: RunConfig
    rows: list
    summary: dict
    row: dict
    mix_label: str


def execute_cell(cell: RunConfig, config=None, mix=None) -> CellResult:
    """Run one cell through the real serve/cluster paths.

    ``config`` overrides the :class:`ExperimentConfig` scale (default:
    the cell's own ``scale`` field); ``mix`` lets library callers pass
    an already-resolved ``[(spec, count), ...]`` mix instead of the
    cell's ``workloads`` string.  Same cell, same seed, same result —
    bit for bit.
    """
    if config is None:
        config = cell.experiment_config()
    seed = cell.seed + cell.repetition
    if _executable(cell).mode == "serve":
        return _execute_serve(cell, config, mix, seed)
    return _execute_cluster(cell, config, mix, seed)


def _executable(cell: RunConfig) -> RunConfig:
    if cell.mode not in CELL_MODES:
        raise RunConfigError(f"mode {cell.mode!r} cannot run as an "
                             f"experiment cell; one of {CELL_MODES}")
    return cell


def _execute_cluster(cell: RunConfig, config, mix, seed: int) -> CellResult:
    raw_mix = mix if mix is not None else (cell.workloads
                                           or DEFAULT_CLUSTER_MIX)
    resolved_mix = apply_slo(raw_mix, cell.slo_fps)
    mix_label = ",".join(f"{spec.name}:{count}"
                         for spec, count in resolved_mix)
    field_store = None
    if cell.catalog is not None:
        # Expand here (not inside simulate_cluster) so the resolved mix
        # the rest of this cell sees — labels, quality accounting — is
        # the variant mix the simulator actually serves.
        from ..distribution import expand_field_serving
        resolved_mix, field_store = expand_field_serving(
            resolved_mix, config, cell.catalog, zipf=cell.zipf,
            replication=cell.replication, seed=seed)
        mix_label += (f" ×{cell.catalog} catalog "
                      f"(zipf={field_store.zipf_s}, "
                      f"R={field_store.shard_map.replication})")
    # Unset knobs resolve to the experiment defaults here, in one place.
    rate_hz = 1.0 if cell.rate_hz is None else cell.rate_hz
    duration_s = 10.0 if cell.duration_s is None else cell.duration_s
    workers = 4 if cell.workers is None else cell.workers
    queue_limit = 4 if cell.queue_limit is None else cell.queue_limit
    placement = cell.placement or "least_loaded"
    autoscaler = None
    if cell.autoscale:
        floor = 1 if cell.min_workers is None else cell.min_workers
        ceiling = 2 * workers if cell.max_workers is None else cell.max_workers
        # The autoscaler only moves the fleet between the bounds — it
        # never provisions up to a floor above the initial fleet, and a
        # ceiling below it would start the run permanently over limit —
        # so the initial size must sit inside them.
        if not floor <= workers <= ceiling:
            raise ValueError(
                f"initial workers ({workers}) must lie within "
                f"min_workers..max_workers ({floor}..{ceiling})")
        # Admission caps load per worker at queue_limit, so the scale-up
        # threshold must sit below it or tight queues would shed every
        # overload as rejects without ever growing the fleet.
        up_load = min(2.0, 0.5 * queue_limit)
        autoscaler = Autoscaler(
            min_workers=floor, max_workers=ceiling,
            up_load=up_load, down_load=min(0.25, up_load / 2),
            scale_up_latency_s=(1.0 if cell.scale_up_latency_s is None
                                else cell.scale_up_latency_s))
    report = simulate_cluster(
        resolved_mix, config, arrivals=cell.arrivals or "poisson",
        rate_hz=rate_hz, duration_s=duration_s, seed=seed,
        workers=workers, placement=placement, queue_limit=queue_limit,
        frames=cell.frames, autoscaler=autoscaler,
        use_cache=cell.use_cache, governor=cell.governor,
        slo_fps=cell.slo_fps, trace=cell.arrival_trace,
        backend=cell.backend, engine_workers=cell.engine_workers,
        field_store=field_store)
    if cell.catalog is None:
        quality = quality_summary(resolved_mix, config, report)
    else:
        # Probe PSNR renders once per unique cache key — prohibitive
        # over a catalog of variants, and orthogonal to what the
        # sharded tier measures; report the ungoverned defaults.
        quality = {"mean_psnr": 0.0, "min_workload_psnr": 0.0,
                   "quality_floor_ok": True, "psnr_per_workload": {}}
    economics = frame_economics(report.total_frames, report.total_energy_j,
                                report.total_busy_s)
    summary = report.summary()
    summary["usd_per_frame"] = economics["usd_per_frame"]
    summary["scale_events"] = report.scale_events
    if cell.governor != "off":
        summary["governor_events"] = report.governor_events
        summary.update(quality)
    offered = report.arrivals_total
    row = {
        "governor": cell.governor,
        "offered_rate_hz": rate_hz,
        "offered": offered,
        "admitted": report.admitted,
        "admitted_rate": (report.admitted / offered if offered else 0.0),
        "reject_rate": report.reject_rate,
        "p99_latency_ms": report.p99_latency_s * 1e3,
        "mean_latency_ms": report.mean_latency_s * 1e3,
        "aggregate_fps": report.aggregate_fps,
        "mean_quality_level": report.mean_quality_level,
        "tier_transitions": report.tier_transitions,
        "overflow_admissions": report.overflow_admissions,
        "mean_psnr": quality["mean_psnr"],
        "min_workload_psnr": quality["min_workload_psnr"],
        "quality_floor_ok": quality["quality_floor_ok"],
        **economics,
    }
    if cell.catalog is not None:
        # Sharded-tier columns, only when the tier ran (frontier rows
        # and un-sharded cells keep their exact legacy shape).
        row.update({
            "hierarchy_hit_rate":
                report.distribution["hierarchy_hit_rate"],
            "field_bakes": report.distribution["field_bakes"],
            "ttff_p95_ms": report.ttff_p95_s * 1e3,
        })
    return CellResult(
        cell=cell, rows=list(report.per_worker), summary=summary, row=row,
        mix_label=mix_label)


def _execute_serve(cell: RunConfig, config, mix, seed: int) -> CellResult:
    serve_mix = mix if mix is not None else cell.workloads
    scheduler = cell.scheduler or "round_robin"
    if serve_mix is not None:
        rows, summary = run_serve(
            config, scheduler=scheduler, frames=cell.frames,
            workloads=serve_mix, use_cache=cell.use_cache, seed=seed,
            governor=cell.governor, slo_fps=cell.slo_fps,
            ray_budget=cell.ray_budget, backend=cell.backend,
            engine_workers=cell.engine_workers)
        mix_label = ",".join(f"{spec.name}:{count}" for spec, count
                             in apply_slo(serve_mix, cell.slo_fps))
    else:
        rows, summary = run_serve(
            config, sessions=4 if cell.sessions is None else cell.sessions,
            scheduler=scheduler, variant=cell.variant or "cicero",
            frames=cell.frames, scene_names=tuple(cell.scenes) or ("lego",),
            algorithm=cell.algorithm or "directvoxgo",
            use_cache=cell.use_cache, seed=seed,
            ray_budget=cell.ray_budget, backend=cell.backend,
            engine_workers=cell.engine_workers)
        mix_label = ""
    row = {
        "governor": cell.governor,
        "sessions": summary["sessions"],
        "total_frames": summary["total_frames"],
        "aggregate_fps": summary["aggregate_fps"],
        "mean_latency_ms": summary["mean_latency_ms"],
        "p95_latency_ms": summary["p95_latency_ms"],
        "p99_latency_ms": summary["p99_latency_ms"],
        "ref_cache_hit_rate": summary["ref_cache_hit_rate"],
        "total_energy_j": summary["total_energy_j"],
        "joules_per_frame": summary["joules_per_frame"],
        "usd_per_frame": summary["usd_per_frame"],
    }
    return CellResult(cell=cell, rows=rows, summary=summary, row=row,
                      mix_label=mix_label)


# ---------------------------------------------------------------------------
# Factorial tables
# ---------------------------------------------------------------------------

_TABLE_KEYS = ("name", "base", "axes", "repetitions")


@dataclass(frozen=True)
class ExperimentTable:
    """A factorial experiment: base cell x axes x repetitions.

    ``axes`` is an ordered tuple of ``(field, values)`` pairs over
    :class:`RunConfig` fields; :meth:`cells` expands their cartesian
    product (last axis fastest, repetitions outermost-last) into
    validated cells.  Repetition ``r`` offsets every cell's seed by
    ``r``, so repeated cells re-sample arrivals reproducibly.
    """

    name: str
    base: RunConfig
    axes: tuple = ()
    repetitions: int = 1

    @classmethod
    def from_dict(cls, data: dict, name: str = "experiment"
                  ) -> "ExperimentTable":
        """Build a table from the parsed JSON/TOML document."""
        if not isinstance(data, dict):
            raise RunConfigError("experiment table must be a JSON/TOML "
                                 "object with 'base' and 'axes'")
        unknown = sorted(set(data) - set(_TABLE_KEYS))
        if unknown:
            raise RunConfigError(
                f"unknown table key(s) {', '.join(unknown)}; known keys: "
                f"{', '.join(_TABLE_KEYS)}")
        base = RunConfig.from_dict(data.get("base") or {})
        fields = set(RunConfig.from_dict({}).to_dict())
        axes = []
        for axis, values in (data.get("axes") or {}).items():
            if axis not in fields or axis in ("label", "repetition"):
                raise RunConfigError(
                    f"axis {axis!r} is not a sweepable RunConfig field")
            values = list(values) if isinstance(values, (list, tuple)) \
                else [values]
            if not values:
                raise RunConfigError(f"axis {axis!r} has no values")
            axes.append((axis, tuple(values)))
        repetitions = int(data.get("repetitions", 1))
        if repetitions < 1:
            raise RunConfigError("repetitions must be >= 1")
        return cls(name=str(data.get("name", name)), base=base,
                   axes=tuple(axes), repetitions=repetitions)

    @classmethod
    def from_file(cls, path) -> "ExperimentTable":
        """Load a table from a ``.json`` or ``.toml`` file."""
        path = Path(path)
        if path.suffix == ".toml":
            if tomllib is None:
                raise RunConfigError(
                    "TOML tables need Python 3.11+ (tomllib is not "
                    "available); convert the table to JSON")
            data = tomllib.loads(path.read_text())
        else:
            try:
                data = json.loads(path.read_text())
            except json.JSONDecodeError as exc:
                raise RunConfigError(f"{path}: not valid JSON "
                                     f"({exc})") from None
        return cls.from_dict(data, name=path.stem)

    def cells(self) -> list:
        """The expanded, validated run list (one RunConfig per cell)."""
        names = [axis for axis, _ in self.axes]
        grids = [values for _, values in self.axes]
        expanded = []
        for assignment in itertools.product(*grids):
            for repetition in range(self.repetitions):
                label = ",".join(f"{axis}={value}" for axis, value
                                 in zip(names, assignment))
                if self.repetitions > 1:
                    label = f"{label},rep={repetition}" if label \
                        else f"rep={repetition}"
                updates = dict(zip(names, assignment))
                if "scenes" in updates:
                    updates["scenes"] = tuple(updates["scenes"])
                cell = self.base.with_updates(
                    repetition=repetition, label=label or self.name,
                    **updates)
                expanded.append(_executable(cell.validate()))
        return expanded


def _cell_artifact(cells_dir: Path, table_name: str, index: int) -> Path:
    return cells_dir / f"BENCH_{table_name}_cell{index:03d}.json"


def _reusable_row(artifact: Path, config_hash: str):
    """The persisted run-table row, iff the artifact matches the hash."""
    if not artifact.exists():
        return None
    try:
        payload = json.loads(artifact.read_text())
    except (OSError, json.JSONDecodeError):
        return None
    extra = payload.get("extra") or {}
    if extra.get("config_hash") != config_hash:
        return None
    return extra.get("row")


def _write_csv(path: Path, rows: list) -> None:
    import csv
    columns = list(dict.fromkeys(key for row in rows for key in row))
    with path.open("w", newline="") as handle:
        writer = csv.DictWriter(handle, fieldnames=columns)
        writer.writeheader()
        for row in rows:
            writer.writerow({key: jsonable(value)
                             for key, value in row.items()})


def run_table(table: ExperimentTable, out_dir, resume: bool = False,
              default_scale: str = "default", log=None) -> tuple:
    """Execute (or resume) a factorial table; returns (rows, extra, path).

    One aggregated row per cell lands in ``<out>/BENCH_experiment.json``
    (strict JSON) and ``<out>/BENCH_experiment.csv``; each cell's raw
    detail rows land in ``<out>/cells/BENCH_<table>_cellNNN.json`` with
    the cell's config + config hash.  With ``resume``, cells whose
    artifact already matches their config hash are folded back into the
    table without re-executing — interrupting a run and re-running with
    ``resume`` completes only the missing cells.
    """
    out = Path(out_dir)
    cells_dir = out / "cells"
    cells = table.cells()
    rows = []
    executed = reused = 0
    started = time.perf_counter()
    for index, cell in enumerate(cells):
        config_hash = cell.config_hash()
        artifact = _cell_artifact(cells_dir, table.name, index)
        if resume:
            row = _reusable_row(artifact, config_hash)
            if row is not None:
                reused += 1
                rows.append(row)
                if log is not None:
                    log(f"[{index + 1}/{len(cells)}] {cell.label}: "
                        "resumed from artifact")
                continue
        cell_started = time.perf_counter()
        config = cell.experiment_config(default_scale)
        result = execute_cell(cell, config=config)
        cell_elapsed = time.perf_counter() - cell_started
        row = {
            "cell": cell.label or f"cell{index:03d}",
            "index": index,
            "mode": cell.mode,
            "repetition": cell.repetition,
            "mix": result.mix_label,
            "config_hash": config_hash,
            **{axis: getattr(cell, axis) for axis, _ in table.axes},
            **result.row,
        }
        write_bench_json(
            cells_dir, f"{table.name}_cell{index:03d}", result.rows,
            cell_elapsed, config=config,
            extra={"config_hash": config_hash, "config": cell.to_dict(),
                   "summary": result.summary, "row": row},
            kind="experiment-cell")
        executed += 1
        rows.append(row)
        if log is not None:
            log(f"[{index + 1}/{len(cells)}] {cell.label}: "
                f"done in {cell_elapsed:.1f}s")
    elapsed = time.perf_counter() - started
    extra = {
        "table": table.name,
        "base": table.base.to_dict(),
        "axes": {axis: list(values) for axis, values in table.axes},
        "repetitions": table.repetitions,
        "cells": len(cells),
        "executed": executed,
        "resumed": reused,
    }
    path = write_bench_json(out, "experiment", rows, elapsed, extra=extra,
                            kind="experiment")
    _write_csv(out / "BENCH_experiment.csv", rows)
    return rows, extra, path
