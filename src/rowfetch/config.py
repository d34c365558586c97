"""Flat dotted-key run configuration for the command-line tools.

One `key=value` pair per line, `#` comments, no sections, no nesting, so
configs diff cleanly.  Per-hop network values accept either a single
number (applied to every hop) or a comma list with one entry per hop.

    workload.total_records=502
    workload.field_bytes=50,4000,8,16
    network.hops=2
    network.bandwidth_bytes_per_ms=600
    network.base_latency_ms=150
    network.availability=0.9
    server.cache_records=100
    driver.default_prefetch=10
    run.seed=7
    run.jitter=0

The key table `_KEYS` is the whole mapping: each key names one field of
one spec dataclass (WorkloadSpec, HopSpec, ServerSpec, DriverSpec or
RunConfig; network.hops is the hop count) and the parser for its text.
An absent key takes its field's dataclass default, and a field with no
default is a required key.  Each spec checks its own fields, and a value
it rejects is reported under the key that set it.

Bundled scenario presets live next to this module and can be named on
the command line anywhere a config path is accepted.
"""

from __future__ import annotations

import math
from dataclasses import MISSING, dataclass, fields
from pathlib import Path

from .core_model import FieldError, WorkloadSpec, require
from .fetch_sim import DriverSpec, HopSpec, NetworkSpec, ServerSpec, transport_time


class ConfigError(ValueError):
    def __init__(self, key: str, message: str):
        self.key = key
        super().__init__(f"{key}: {message}")


@dataclass(frozen=True)
class RunConfig:
    workload: WorkloadSpec
    network: NetworkSpec
    server: ServerSpec
    driver: DriverSpec
    seed: int = 0
    jitter: float = 0.0

    def __post_init__(self):
        require(0 <= self.jitter <= 1, "jitter", "must be in [0, 1]")


def _ints(text: str) -> list[int]:
    return [int(part) for part in text.split(",")]


def _floats(text: str) -> list[float]:
    return [float(part) for part in text.split(",")]


# key -> (spec, dataclass field, text parser, what a parse error expected).
_KEYS = {
    "workload.total_records": ("workload", "total_records", int, "an integer"),
    "workload.field_bytes": ("workload", "field_byte_sizes", _ints,
                             "comma-separated integers"),
    "network.hops": ("network", "hops", int, "an integer"),
    "network.bandwidth_bytes_per_ms": ("hop", "bandwidth", _floats, "a number or comma list"),
    "network.base_latency_ms": ("hop", "base_latency", _floats, "a number or comma list"),
    "network.availability": ("hop", "availability", _floats, "a number or comma list"),
    "server.hard_parse_ms": ("server", "hard_parse", float, "a number"),
    "server.soft_parse_ms": ("server", "soft_parse", float, "a number"),
    "server.per_record_search_ms": ("server", "per_record_search", float, "a number"),
    "server.cache_records": ("server", "server_cache_size", int, "an integer"),
    "server.disk_access_ms": ("server", "disk_access_per_refill", float, "a number"),
    "driver.recommended_prefetch": ("driver", "recommended_prefetch", int, "an integer"),
    "driver.enforced_prefetch": ("driver", "enforced_prefetch", int, "an integer"),
    "driver.default_prefetch": ("driver", "default_prefetch", int, "an integer"),
    "driver.per_field_conversion_ms": ("driver", "per_field_conversion", float, "a number"),
    "driver.request_overhead_ms": ("driver", "request_overhead", float, "a number"),
    "run.seed": ("run", "seed", int, "an integer"),
    "run.jitter": ("run", "jitter", float, "a number"),
}
_KEY_OF = {(spec, field): key for key, (spec, field, _, _) in _KEYS.items()}


def _parse_fields(text: str) -> dict[str, dict]:
    """Parse every present key into its spec's kwargs, keyed by spec."""
    specs: dict[str, dict] = {spec: {} for spec, *_ in _KEYS.values()}
    for lineno, raw in enumerate(text.splitlines(), start=1):
        line = raw.strip()
        if not line or line.startswith("#"):
            continue
        if "=" not in line:
            raise ConfigError(f"line {lineno}", f"expected key=value, got {line!r}")
        key, value = (part.strip() for part in line.split("=", 1))
        if key not in _KEYS:
            raise ConfigError(key, "unknown config key")
        spec, field, parse, expected = _KEYS[key]
        if field in specs[spec]:
            raise ConfigError(key, "duplicate key")
        try:
            specs[spec][field] = parse(value)
        except ValueError:
            raise ConfigError(key, f"expected {expected}, got {value!r}") from None
    return specs


def _build(cls, spec: str, **kwargs):
    """Construct cls, naming the config key of a missing or rejected field."""
    for f in fields(cls):
        if f.default is MISSING and f.name not in kwargs:
            raise ConfigError(_KEY_OF[(spec, f.name)], "required key missing")
    try:
        return cls(**kwargs)
    except FieldError as exc:
        raise ConfigError(_KEY_OF[(spec, exc.field)], exc.rule) from None


def parse_config(text: str) -> RunConfig:
    specs = _parse_fields(text)
    workload = _build(WorkloadSpec, "workload", **specs["workload"])
    hops_key, count = _KEY_OF[("network", "hops")], specs["network"].get("hops")
    if count is None:
        raise ConfigError(hops_key, "required key missing")
    if count < 0:
        raise ConfigError(hops_key, "must be >= 0")
    per_hop = specs["hop"]
    for field, values in per_hop.items():
        if len(values) == 1:
            per_hop[field] = values * count
        elif len(values) != count:
            raise ConfigError(_KEY_OF[("hop", field)],
                              f"expected 1 or {count} values, got {len(values)}")
    network = NetworkSpec(tuple(
        _build(HopSpec, "hop", **{field: values[i] for field, values in per_hop.items()})
        for i in range(count)))
    # Each hop is finite alone; moving the whole result set must be too.
    if not math.isfinite(sum(hop.base_latency for hop in network.hops)):
        raise ConfigError(_KEY_OF[("hop", "base_latency")], "sums past float64 over the hops")
    whole_set = max(workload.total_records, 1) * workload.record_bytes
    if not math.isfinite(transport_time(whole_set, network)):
        raise ConfigError(_KEY_OF[("hop", "bandwidth")],
                          "too small to move the whole result set in a finite time")
    server = _build(ServerSpec, "server", **specs["server"])
    driver = _build(DriverSpec, "driver", **specs["driver"])
    cfg = _build(RunConfig, "run", workload=workload, network=network, server=server,
                 driver=driver, **specs["run"])
    if cfg.jitter > 0 and "seed" not in specs["run"]:
        raise ConfigError(_KEY_OF[("run", "seed")], "required when run.jitter > 0")
    return cfg


_PRESETS = Path(__file__).with_name("presets")


def list_presets() -> list[str]:
    return sorted(p.name for p in _PRESETS.iterdir() if p.name.endswith(".cfg"))


def resolve_config_path(name_or_path: str) -> Path:
    """Accept a filesystem path or the bare name of a bundled preset."""
    path = Path(name_or_path)
    if path.exists():
        return path
    candidate = _PRESETS / name_or_path
    if candidate.is_file():
        return candidate
    raise FileNotFoundError(
        f"no such config file or preset: {name_or_path} "
        f"(presets: {', '.join(list_presets())})")


def load_config(name_or_path: str) -> RunConfig:
    path = resolve_config_path(name_or_path)
    # Undecodable bytes become U+FFFD, so they fail as a bad value or an
    # unknown key that names its key, like any other malformed input.
    return parse_config(path.read_text(errors="replace"))
