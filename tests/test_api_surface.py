"""API-surface gate: every execution knob has exactly one spelling.

The deprecation shims (loose ``Engine`` keywords, the ``use_waves`` /
``use_kernels`` booleans on the app configs, warning wrappers around the
live-object evaluation functions) are gone; this gate keeps them gone.
``pyproject.toml`` additionally turns any ``DeprecationWarning`` raised
during tier-1 into an error.
"""

import dataclasses
import inspect
import re
from pathlib import Path

from repro.apps import HeatConfig, SpectralConfig, TsunamiConfig
from repro.apps.workload import ExecutionMode
from repro.simmpi import Engine, EngineConfig, run_program

SRC = Path(__file__).resolve().parent.parent / "src" / "repro"


def test_no_deprecated_paths_in_src():
    marker = re.compile(r"DeprecationWarning|\.\. deprecated::")
    hits = [
        f"{path.relative_to(SRC)}:{lineno}"
        for path in sorted(SRC.rglob("*.py"))
        for lineno, line in enumerate(path.read_text().splitlines(), 1)
        if marker.search(line)
    ]
    assert not hits, f"deprecated paths crept back into src/repro: {hits}"


def test_engine_constructors_take_only_a_config():
    assert list(inspect.signature(Engine.__init__).parameters) == [
        "self", "nranks", "config", "network", "tracer",
    ]
    assert list(inspect.signature(run_program).parameters) == [
        "program", "nranks", "config", "network", "tracer",
    ]


def test_engine_config_fields_are_pinned():
    """The fast paths self-gate and their reference is ``ReferenceEngine``:
    no config field switches a fast path off, and one field spells the
    schedule."""
    assert [f.name for f in dataclasses.fields(EngineConfig)] == [
        "pool_capacity", "schedule", "failure_ranks", "track_recv_counts",
    ]


def test_app_configs_carry_mode_and_no_boolean_flags():
    for config in (HeatConfig, TsunamiConfig, SpectralConfig):
        fields = {f.name: f for f in dataclasses.fields(config)}
        assert fields["mode"].default is ExecutionMode.KERNELS
        assert not [name for name in fields if name.startswith("use_")]
