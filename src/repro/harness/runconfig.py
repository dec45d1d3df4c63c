"""Declarative run configuration: one experiment cell, one validator.

A :class:`RunConfig` is the frozen, JSON/TOML-loadable description of a
single harness run ("cell"): workload mix, arrival process, fleet size,
placement, governor mode, SLO, seed.  Every harness entry point —
``cli serve``, ``cli cluster``, ``cli frontier``, ``cli serve-live``,
``cli loadgen``, and the factorial ``cli experiment`` runner — builds
one of these and routes it through :meth:`RunConfig.validate`.

:data:`OPTIONS` declares every CLI flag exactly once: the commands that
accept it and the RunConfig field it sets.  ``cli.build_parser``
registers on each subcommand only its own flags, so a flag foreign to a
command is a parse error; :meth:`RunConfig.validate` reads the same
table to reject a field that a (JSON) table cell sets for a mode none
of the field's commands runs.

The config is content-addressed: :meth:`RunConfig.config_hash` digests
the canonical JSON of every result-affecting field, which is what the
experiment runner's ``--resume`` compares against persisted per-cell
artifacts (a cell re-runs iff its config changed).
"""

from __future__ import annotations

import dataclasses
import hashlib
import json
from dataclasses import dataclass

from ..backend import backend_names
from ..cluster import ARRIVAL_KINDS, PLACEMENTS
from ..control import GOVERNOR_MODES
from ..hw.soc import VARIANTS
from ..workloads import parse_mix
from .configs import ALGORITHMS, DEFAULT, FAST, scene_of

__all__ = ["COMMAND_MODES", "FIGURE", "MODES", "OPTIONS", "SCALES",
           "SCHEDULERS", "Option", "RunConfig", "RunConfigError",
           "from_cli_args", "parse_rates"]

MODES = ("serve", "cluster", "realserve")
SCALES = ("default", "fast")
SCHEDULERS = ("round_robin", "deadline")

# The mode of the RunConfig each cell-building command constructs.
COMMAND_MODES = {"serve": "serve", "cluster": "cluster",
                 "frontier": "cluster", "serve-live": "realserve",
                 "loadgen": "realserve"}
# Stands for every figure-id command and 'all' in OPTIONS.
FIGURE = "figure"

_SIM = ("serve", "cluster", "frontier")
_FLEET = ("cluster", "frontier")
_LIVE = ("serve-live", "loadgen")


@dataclass(frozen=True)
class Option:
    """One CLI flag: the commands that accept it, and the
    :class:`RunConfig` field it sets (``None`` for a flag that only
    steers its command, such as ``--json-out``).  ``kwargs`` go to
    ``argparse.ArgumentParser.add_argument``."""

    flag: str
    commands: tuple
    field: str | None = None
    kwargs: dict = dataclasses.field(default_factory=dict)

    @property
    def modes(self) -> set:
        """The RunConfig modes whose commands accept this flag."""
        return {COMMAND_MODES[command] for command in self.commands
                if command in COMMAND_MODES}


def _opt(flag, commands, field=None, **kwargs) -> Option:
    return Option(flag, tuple(commands), field, kwargs)


OPTIONS = (
    _opt("--fast", (FIGURE, *_SIM, *_LIVE, "reconcile", "bench",
                    "experiment"),
         action="store_true",
         help="use the reduced test-scale configuration"),
    _opt("--json-out", (FIGURE, *_SIM, "loadgen", "reconcile", "bench"),
         metavar="DIR",
         help="write BENCH_<name>.json artifacts into DIR (commands that "
              "always write one default to bench-artifacts)"),
    _opt("--trace", (*_SIM, "loadgen", "experiment"), metavar="PATH",
         help="record the run as Chrome Trace Event JSON at PATH (load "
              "in Perfetto; inspect with 'trace analyze PATH')"),
    # Workload shape and serving policy.
    _opt("--workload", (*_SIM, "loadgen"), "workloads", action="append",
         metavar="NAME[:N]",
         help="named workload spec, optionally duplicated N times "
              "(repeatable; see 'workloads'); the spec fixes scene/"
              "algorithm/variant, and on cluster/loadgen the counts are "
              "arrival popularity weights"),
    _opt("--frames", (*_SIM, "loadgen"), "frames", type=int,
         help="frames per session (default: config scale)"),
    _opt("--seed", (*_SIM, "loadgen"), "seed", type=int,
         help="seed for every stochastic choice (trajectories, arrival "
              "schedule); same seed, same run (default 0)"),
    _opt("--governor", (*_SIM, *_LIVE), "governor", choices=GOVERNOR_MODES,
         help="SLO quality governor: 'off' serves native tiers, 'static' "
              "pins each workload's min_quality_tier, 'adaptive' degrades"
              "/recovers on frame latency (default off; frontier sweeps "
              "all three unless one is given)"),
    _opt("--slo", (*_SIM, *_LIVE), "slo_fps", type=float, metavar="FPS",
         help="override every workload's SLO frame rate (default: each "
              "spec's slo_fps, else its fps_target)"),
    _opt("--no-cache", (*_SIM, *_LIVE), "use_cache", action="store_false",
         help="disable the shared cross-session reference cache "
              "(outputs are bit-identical either way)"),
    _opt("--backend", ("serve", "cluster", *_LIVE, "bench"), "backend",
         choices=backend_names(),
         help="kernel backend: 'numpy' (default) or 'parallel' (session "
              "fan-out to a worker pool); both bit-identical"),
    _opt("--engine-workers", ("serve", "cluster", *_LIVE, "bench"),
         "engine_workers", type=int, metavar="N",
         help="worker processes for --backend parallel (default 2)"),
    # serve: one SoC, a fixed set of closed-loop sessions.
    _opt("--sessions", ("serve",), "sessions", type=int,
         help="concurrent sessions (default 4)"),
    _opt("--scheduler", ("serve",), "scheduler", choices=SCHEDULERS,
         help="session scheduling policy (default round_robin)"),
    _opt("--variant", ("serve",), "variant", choices=VARIANTS,
         help="SoC variant to price frames under (default cicero)"),
    _opt("--scene", ("serve",), "scenes", action="append", metavar="NAME",
         help="scene(s) to cycle sessions over (repeatable; default lego)"),
    _opt("--algorithm", ("serve",), "algorithm",
         help="NeRF algorithm for every session (default directvoxgo)"),
    _opt("--ray-budget", ("serve",), "ray_budget", type=int,
         help="cap on rays per engine round; with --governor it is split "
              "by SLO pressure (default unbounded)"),
    # Arrival processes: the simulated fleet and the live loadgen.
    _opt("--arrivals", ("cluster", "loadgen"), "arrivals",
         choices=ARRIVAL_KINDS, help="arrival process (default poisson)"),
    _opt("--rate", ("cluster", "loadgen"), "rate_hz", type=float,
         help="arrival rate in sessions/s, the peak for diurnal (default "
              "1.0; loadgen 2.0)"),
    _opt("--duration", (*_FLEET, "loadgen"), "duration_s", type=float,
         help="arrival window in virtual seconds (default 10; loadgen 4)"),
    _opt("--arrival-trace", ("cluster", "loadgen"), "arrival_trace",
         metavar="PATH", help="JSON arrival trace for --arrivals replay"),
    # The simulated fleet.
    _opt("--workers", _FLEET, "workers", type=int,
         help="initial SoC worker count (default 4)"),
    _opt("--placement", _FLEET, "placement",
         choices=tuple(sorted(PLACEMENTS)),
         help="placement policy (default least_loaded; cache_affinity "
              "co-locates shared content, shard_affinity prefers workers "
              "holding the field — pair it with --catalog)"),
    _opt("--queue-limit", _FLEET, "queue_limit", type=int,
         help="resident sessions per worker before admission rejects "
              "(default 4)"),
    _opt("--autoscale", ("cluster",), "autoscale", action="store_true",
         help="scale the fleet between --min-workers and --max-workers"),
    _opt("--min-workers", ("cluster",), "min_workers", type=int,
         help="autoscaler floor (default 1)"),
    _opt("--max-workers", ("cluster",), "max_workers", type=int,
         help="autoscaler ceiling (default 2x --workers)"),
    _opt("--scale-up-latency", ("cluster",), "scale_up_latency_s",
         type=float,
         help="virtual seconds before a scaled-up worker takes sessions "
              "(default 1.0)"),
    _opt("--catalog", ("cluster",), "catalog", type=int, metavar="N",
         help="serve N content-distinct scene variants through the "
              "sharded field tier (see docs/sharded-serving.md)"),
    _opt("--zipf", ("cluster",), "zipf", type=float, metavar="S",
         help="zipfian popularity skew over the catalog (default 1.1; "
              "0 = uniform)"),
    _opt("--replication", ("cluster",), "replication", type=int,
         metavar="R",
         help="replicas per baked field (default 2; 0 disables the tier)"),
    # The live frame server.
    _opt("--host", _LIVE, "host",
         help="interface the frame server binds (default 127.0.0.1)"),
    _opt("--port", _LIVE, "port", type=int,
         help="port the frame server binds (default 0 = ephemeral)"),
    _opt("--time-scale", ("loadgen",), "time_scale", type=float,
         help="wall seconds per virtual arrival second (default 1.0; "
              "reconcile normalises back)"),
    _opt("--connect", ("loadgen",), metavar="HOST:PORT",
         help="target a running 'serve-live' server instead of starting "
              "an in-process one"),
    # Flags of one command, with no RunConfig field.
    _opt("--rates", ("frontier",), metavar="R1,R2,...",
         help="offered arrival rates (sessions/s) to sweep (default "
              "8,24,72; >= 3 points)"),
    _opt("--input", ("reconcile",), metavar="PATH", required=True,
         help="the BENCH_realserve.json a 'loadgen' run wrote"),
    _opt("--quick", ("bench",), action="store_true",
         help="CI smoke scale: FAST config, fewer reps, smaller inputs"),
    _opt("--kernels", ("bench",), metavar="K1,K2,...",
         help="run only these registered kernels (see "
              "docs/benchmarking.md)"),
    _opt("--repeat", ("bench",), type=int, default=3, metavar="N",
         help="keep the best of N runs per kernel (default 3)"),
    _opt("--top", ("trace",), type=int, default=10, metavar="N",
         help="rows per ranking (default 10)"),
    _opt("--table", ("experiment",), metavar="PATH", required=True,
         help="factorial run table (.json, or .toml on Python 3.11+; see "
              "docs/experiments.md)"),
    _opt("--resume", ("experiment",), action="store_true",
         help="skip cells whose artifact under --out/cells already "
              "matches their config hash"),
    _opt("--out", ("experiment",), metavar="DIR",
         help="artifact directory (default bench-artifacts)"),
)


class RunConfigError(ValueError):
    """A run configuration that must be rejected, with a user-facing
    message in ``args[0]`` (the CLI prints it verbatim and exits 2)."""


@dataclass(frozen=True)
class RunConfig:
    """One cell of an experiment: everything a run needs, and nothing
    resolved from ambient state.

    Fields default to "unset" (``None``) wherever the executing harness
    owns the default, so a table stays minimal and the experiment
    defaults live in exactly one place (the ``run_serve``/``run_cluster``
    signatures).  ``label`` is cosmetic (excluded from the config hash);
    ``repetition`` distinguishes factorial repetitions (each offsets the
    seed by its index).
    """

    mode: str = "cluster"
    scale: str | None = None  # "default" | "fast" | None (runner decides)
    label: str | None = None
    repetition: int = 0

    # Shared knobs.
    workloads: str | None = None
    frames: int | None = None
    seed: int = 0
    governor: str = "off"
    slo_fps: float | None = None
    use_cache: bool = True
    # Kernel backend (see repro.backend): None lets the engine default
    # (numpy) apply; engine_workers sizes the parallel backend's pool.
    backend: str | None = None
    engine_workers: int | None = None

    # Serve-only knobs.
    sessions: int | None = None
    scheduler: str | None = None
    variant: str | None = None
    scenes: tuple = ()
    algorithm: str | None = None
    ray_budget: int | None = None

    # Cluster-only knobs.
    arrivals: str | None = None
    rate_hz: float | None = None
    duration_s: float | None = None
    workers: int | None = None
    placement: str | None = None
    queue_limit: int | None = None
    arrival_trace: str | None = None
    autoscale: bool = False
    min_workers: int | None = None
    max_workers: int | None = None
    scale_up_latency_s: float | None = None
    # Sharded field tier (repro.distribution): catalog switches it on,
    # zipf shapes the popularity skew, replication sizes the owner sets.
    catalog: int | None = None
    zipf: float | None = None
    replication: int | None = None

    # Realserve-only knobs (the live frame server + loadgen; see
    # repro.server): where the server listens, and how much the loadgen
    # compresses virtual arrival seconds into wall seconds.
    host: str | None = None
    port: int | None = None
    time_scale: float | None = None

    # -- construction / serialisation -----------------------------------------

    @classmethod
    def from_dict(cls, data: dict) -> "RunConfig":
        """Build (and validate shape of) a config from a plain dict."""
        known = {f.name for f in dataclasses.fields(cls)}
        unknown = sorted(set(data) - known)
        if unknown:
            raise RunConfigError(
                f"unknown RunConfig field(s) {', '.join(unknown)}; "
                f"known fields: {', '.join(sorted(known))}")
        coerced = dict(data)
        if "scenes" in coerced and coerced["scenes"] is not None:
            coerced["scenes"] = tuple(coerced["scenes"])
        return cls(**coerced)

    def to_dict(self) -> dict:
        """Plain-JSON dict of every field (tuples become lists)."""
        out = dataclasses.asdict(self)
        out["scenes"] = list(self.scenes)
        return out

    def with_updates(self, **updates) -> "RunConfig":
        """A copy with ``updates`` applied (frozen-dataclass replace)."""
        return dataclasses.replace(self, **updates)

    def config_hash(self) -> str:
        """SHA-256 of the canonical JSON of result-affecting fields.

        ``label`` is display-only and excluded, so renaming a cell never
        forces a re-run under ``--resume``.
        """
        hashed = self.to_dict()
        hashed.pop("label")
        canonical = json.dumps(hashed, sort_keys=True)
        return hashlib.sha256(canonical.encode()).hexdigest()

    def experiment_config(self, default_scale: str = "default"):
        """The :class:`ExperimentConfig` scale this cell runs at."""
        scale = self.scale if self.scale is not None else default_scale
        return FAST if scale == "fast" else DEFAULT

    # -- validation ------------------------------------------------------------

    def validate(self) -> "RunConfig":
        """Raise :class:`RunConfigError` on any invalid/conflicting knob
        combination; returns ``self`` so calls chain."""
        if self.mode not in MODES:
            raise RunConfigError(
                f"unknown mode {self.mode!r}; one of {MODES}")
        if self.scale is not None and self.scale not in SCALES:
            raise RunConfigError(
                f"unknown scale {self.scale!r}; one of {SCALES}")
        if self.repetition < 0:
            raise RunConfigError("repetition must be >= 0")
        defaults = {f.name: f.default for f in dataclasses.fields(self)}
        for option in OPTIONS:
            if (option.field is not None
                    and self.mode not in option.modes
                    and getattr(self, option.field)
                    != defaults[option.field]):
                raise RunConfigError(
                    f"field {option.field} ({option.flag}) does not apply "
                    f"to mode {self.mode}")
        self._validate_shared()
        self._validate_serve()
        self._validate_arrivals()
        return self

    def _validate_shared(self) -> None:
        if self.frames is not None and self.frames < 1:
            raise RunConfigError("--frames must be >= 1")
        if self.slo_fps is not None and self.slo_fps <= 0:
            raise RunConfigError("--slo must be > 0")
        if self.governor not in GOVERNOR_MODES:
            raise RunConfigError(f"unknown governor {self.governor!r}; "
                                 f"one of {GOVERNOR_MODES}")
        if self.workloads is not None:
            try:
                parse_mix(self.workloads)
            except (KeyError, ValueError) as exc:
                raise RunConfigError(exc.args[0]) from None
        if self.backend is not None and self.backend not in backend_names():
            raise RunConfigError(f"unknown backend {self.backend!r}; "
                                 f"one of {backend_names()}")
        if self.engine_workers is not None:
            if self.engine_workers < 1:
                raise RunConfigError("--engine-workers must be >= 1")
            if self.backend != "parallel":
                raise RunConfigError(
                    "--engine-workers requires --backend parallel "
                    "(the numpy backend runs in-process)")

    def _validate_serve(self) -> None:
        if self.ray_budget is not None and self.ray_budget < 1:
            raise RunConfigError("--ray-budget must be >= 1")
        if self.scheduler is not None and self.scheduler not in SCHEDULERS:
            raise RunConfigError(f"unknown scheduler {self.scheduler!r}; "
                                 f"one of {SCHEDULERS}")
        if self.workloads is not None and (
                self.scenes or self.algorithm is not None
                or self.variant is not None or self.sessions is not None):
            raise RunConfigError(
                "--workload cannot be combined with --scene/--algorithm/"
                "--variant/--sessions (the specs and mix counts fix them)")
        if (self.mode == "serve" and self.workloads is None
                and self.governor != "off"):
            raise RunConfigError(
                "--governor needs --workload mixes (the legacy "
                "scene-cycling sessions carry no SLO fields)")
        if self.sessions is not None and self.sessions < 1:
            raise RunConfigError("--sessions must be >= 1")
        if self.variant is not None and self.variant not in VARIANTS:
            raise RunConfigError(f"unknown variant {self.variant!r}; "
                                 f"one of {VARIANTS}")
        if self.algorithm is not None and self.algorithm not in ALGORITHMS:
            raise RunConfigError(f"unknown algorithm {self.algorithm!r}; "
                                 f"one of {ALGORITHMS}")
        for name in self.scenes:
            try:
                scene_of(name)
            except KeyError as exc:
                raise RunConfigError(exc.args[0]) from None

    def _validate_arrivals(self) -> None:
        if (self.rate_hz is not None and self.rate_hz <= 0
                or self.duration_s is not None and self.duration_s <= 0):
            raise RunConfigError("--rate and --duration must be > 0")
        if (self.workers is not None and self.workers < 1
                or self.queue_limit is not None and self.queue_limit < 1):
            raise RunConfigError("--workers and --queue-limit must be >= 1")
        arrivals = self.arrivals or "poisson"
        if arrivals not in ARRIVAL_KINDS:
            raise RunConfigError(f"unknown arrivals {arrivals!r}; "
                                 f"one of {ARRIVAL_KINDS}")
        if self.placement is not None and self.placement not in PLACEMENTS:
            raise RunConfigError(
                f"unknown placement {self.placement!r}; one of "
                f"{tuple(sorted(PLACEMENTS))}")
        if (arrivals == "replay") != (self.arrival_trace is not None):
            raise RunConfigError(
                "--arrival-trace is required for (and only valid with) "
                "--arrivals replay")
        if self.mode == "cluster" and arrivals == "replay" and (
                self.workloads is not None or self.rate_hz is not None
                or self.duration_s is not None):
            raise RunConfigError(
                "--workload/--rate/--duration do not apply to --arrivals "
                "replay (the trace fixes every arrival)")
        if not self.autoscale and (self.min_workers is not None
                                   or self.max_workers is not None
                                   or self.scale_up_latency_s is not None):
            raise RunConfigError(
                "--min-workers/--max-workers/--scale-up-latency require "
                "--autoscale")
        if self.catalog is None and (self.zipf is not None
                                     or self.replication is not None):
            raise RunConfigError(
                "--zipf/--replication require --catalog (the sharded "
                "field tier)")
        if self.catalog is not None and self.catalog < 1:
            raise RunConfigError("--catalog must be >= 1")
        if self.zipf is not None and self.zipf < 0:
            raise RunConfigError("--zipf must be >= 0")
        if self.replication is not None and self.replication < 0:
            raise RunConfigError("--replication must be >= 0")
        if self.port is not None and not 0 <= self.port <= 65535:
            raise RunConfigError("--port must be in 0..65535")
        if self.time_scale is not None and self.time_scale <= 0:
            raise RunConfigError("--time-scale must be > 0")


def parse_rates(text: str) -> tuple:
    """Parse a frontier ``--rates`` list; >= 3 positive load points."""
    try:
        rates = tuple(float(part) for part in text.split(",")
                      if part.strip())
    except ValueError:
        raise RunConfigError(f"bad --rates {text!r}; expected "
                             "comma-separated numbers") from None
    if len(rates) < 3 or any(r <= 0 for r in rates):
        raise RunConfigError("--rates needs >= 3 positive load points")
    return rates


def from_cli_args(command: str, args) -> RunConfig:
    """Build the validated :class:`RunConfig` behind one CLI invocation.

    ``command`` is a key of :data:`COMMAND_MODES`; ``args`` is the
    namespace its subparser produced, so it holds exactly the fields
    :data:`OPTIONS` gives that command.  Unset flags stay out of the
    config, leaving the defaults to the executing harness.
    """
    values = {option.field: getattr(args, option.field)
              for option in OPTIONS
              if option.field is not None and command in option.commands
              and getattr(args, option.field) is not None}
    if "workloads" in values:
        values["workloads"] = ",".join(values["workloads"])
    if "scenes" in values:
        values["scenes"] = tuple(values["scenes"])
    return RunConfig(mode=COMMAND_MODES[command],
                     scale="fast" if args.fast else "default",
                     **values).validate()
