"""Fixture-based good/bad tests for every `repro lint` contract rule."""

from __future__ import annotations

import importlib
import sys
import textwrap
from pathlib import Path

import pytest

from repro.analysis.lint import REGISTRY, LintConfig, lint_paths
from repro.analysis.lint.core import (
    Finding,
    is_suppressed,
    iter_python_files,
    select_rules,
    suppressions_for,
)

REPO_ROOT = Path(__file__).resolve().parents[1]

EXPECTED_RULES = {
    "global-rng",
    "wall-clock",
    "unsorted-iteration",
    "spec-hash-fields",
    "frozen-mutation",
    "durable-write",
}


def lint_source(tmp_path: Path, source: str, rules: list[str] | None = None, name: str = "snippet.py"):
    """Write ``source`` to a scratch file and lint it."""
    path = tmp_path / name
    path.write_text(textwrap.dedent(source))
    return lint_paths([path], rule_ids=rules)


def rule_ids(result) -> list[str]:
    return [finding.rule for finding in result.findings]


class TestRegistry:
    def test_all_six_rules_registered(self):
        assert EXPECTED_RULES <= set(REGISTRY)

    def test_rules_carry_catalog_metadata(self):
        for rule_id in EXPECTED_RULES:
            rule = REGISTRY[rule_id]
            assert rule.summary and rule.rationale

    def test_select_unknown_rule_raises(self):
        with pytest.raises(ValueError, match="unknown rule"):
            select_rules(["no-such-rule"])


class TestGlobalRNG:
    def test_flags_global_numpy_distribution_call(self, tmp_path):
        result = lint_source(
            tmp_path,
            """
            import numpy as np
            def draw():
                return np.random.normal(size=3)
            """,
            rules=["global-rng"],
        )
        assert rule_ids(result) == ["global-rng"]

    def test_flags_stdlib_random_and_unseeded_default_rng(self, tmp_path):
        result = lint_source(
            tmp_path,
            """
            import random
            import numpy as np
            def bad():
                return random.randint(0, 3) + float(np.random.default_rng().random())
            """,
            rules=["global-rng"],
        )
        assert rule_ids(result) == ["global-rng", "global-rng"]

    def test_flags_default_rng_with_literal_none(self, tmp_path):
        result = lint_source(
            tmp_path,
            """
            import numpy as np
            def bad():
                return np.random.default_rng(None)
            """,
            rules=["global-rng"],
        )
        assert len(result.findings) == 1

    def test_allows_generator_constructors_and_seeded_default_rng(self, tmp_path):
        result = lint_source(
            tmp_path,
            """
            import numpy as np
            def good(seed):
                seq = np.random.SeedSequence(seed, spawn_key=(1,))
                rng = np.random.Generator(np.random.PCG64(seq))
                other = np.random.default_rng(seed)
                return rng.normal() + other.random()
            """,
            rules=["global-rng"],
        )
        assert result.findings == []

    def test_numpy_alias_resolution(self, tmp_path):
        result = lint_source(
            tmp_path,
            """
            import numpy.random as npr
            def bad():
                return npr.uniform()
            """,
            rules=["global-rng"],
        )
        assert rule_ids(result) == ["global-rng"]

    def test_numpy_random_attribute_named_random_not_confused_with_stdlib(self, tmp_path):
        # `from numpy import random` binds numpy's module under the name
        # `random`; constructor use through it stays allowed.
        result = lint_source(
            tmp_path,
            """
            from numpy import random
            def good(seed):
                return random.Generator(random.PCG64(seed))
            """,
            rules=["global-rng"],
        )
        assert result.findings == []


class TestWallClock:
    def test_flags_time_time_outside_allowlist(self, tmp_path):
        result = lint_source(
            tmp_path,
            """
            import time
            def stamp():
                return time.time()
            """,
            rules=["wall-clock"],
        )
        assert rule_ids(result) == ["wall-clock"]

    def test_flags_datetime_now_including_from_import(self, tmp_path):
        result = lint_source(
            tmp_path,
            """
            from datetime import datetime
            def stamp():
                return datetime.now()
            """,
            rules=["wall-clock"],
        )
        assert rule_ids(result) == ["wall-clock"]

    def test_allows_monotonic_duration_clocks(self, tmp_path):
        result = lint_source(
            tmp_path,
            """
            import time
            def measure():
                start = time.perf_counter()
                return time.perf_counter() - start + time.monotonic()
            """,
            rules=["wall-clock"],
        )
        assert result.findings == []

    def test_allowlisted_module_is_exempt(self, tmp_path):
        package = tmp_path / "repro" / "telemetry"
        package.mkdir(parents=True)
        (tmp_path / "repro" / "__init__.py").write_text("")
        (package / "__init__.py").write_text("")
        module = package / "stamps.py"
        module.write_text("import time\n\ndef stamp():\n    return time.time()\n")
        result = lint_paths([module], rule_ids=["wall-clock"])
        assert result.findings == []

    def test_real_allowlist_matches_repo_layout(self):
        config = LintConfig()
        assert config.module_allowed("repro.telemetry.spans", config.wall_clock_allowlist)
        assert config.module_allowed("repro.campaign.store", config.wall_clock_allowlist)
        assert not config.module_allowed("repro.engine.trial", config.wall_clock_allowlist)
        # Prefix matching is segment-aware: no accidental umbrella.
        assert not config.module_allowed(
            "repro.telemetry_extras", config.wall_clock_allowlist
        )


class TestUnsortedIteration:
    def test_flags_bare_glob_iteration(self, tmp_path):
        result = lint_source(
            tmp_path,
            """
            def entries(directory):
                return [p.name for p in directory.glob("*.json")]
            """,
            rules=["unsorted-iteration"],
        )
        assert rule_ids(result) == ["unsorted-iteration"]

    def test_flags_os_listdir_and_iterdir(self, tmp_path):
        result = lint_source(
            tmp_path,
            """
            import os
            def walk(d):
                for name in os.listdir(d):
                    yield name
                for p in d.iterdir():
                    yield p
            """,
            rules=["unsorted-iteration"],
        )
        assert rule_ids(result) == ["unsorted-iteration", "unsorted-iteration"]

    def test_sorted_wrapping_is_clean_direct_and_through_genexpr(self, tmp_path):
        result = lint_source(
            tmp_path,
            """
            def entries(directory):
                direct = sorted(directory.glob("*.json"))
                names = tuple(sorted(p.name for p in directory.glob("*.m")))
                return direct, names
            """,
            rules=["unsorted-iteration"],
        )
        assert result.findings == []

    def test_flags_set_iteration_allows_sorted_set(self, tmp_path):
        result = lint_source(
            tmp_path,
            """
            def over(values):
                for x in set(values):
                    yield x
                for y in sorted(set(values)):
                    yield y
                return [z for z in {1, 2, 3}]
            """,
            rules=["unsorted-iteration"],
        )
        assert len(result.findings) == 2

    def test_fixed_result_cache_stays_clean(self):
        # The motivating example: ResultCache.clear/__len__ iterated an
        # unsorted glob before this rule existed.
        result = lint_paths(
            [REPO_ROOT / "src" / "repro" / "engine" / "cache.py"],
            rule_ids=["unsorted-iteration"],
        )
        assert result.findings == []


class TestSpecHashFields:
    def test_flags_ad_hoc_pop_in_content_hash(self, tmp_path):
        result = lint_source(
            tmp_path,
            """
            from dataclasses import dataclass

            _LABEL_FIELDS = ("name",)

            @dataclass(frozen=True)
            class ThingSpec:
                name: str = ""
                note: str = ""

                def content_hash(self):
                    payload = {"name": self.name, "note": self.note}
                    payload.pop("note")
                    return str(payload)
            """,
            rules=["spec-hash-fields"],
        )
        assert rule_ids(result) == ["spec-hash-fields"]
        assert "'note'" in result.findings[0].message

    def test_flags_stale_declared_exclusion(self, tmp_path):
        result = lint_source(
            tmp_path,
            """
            from dataclasses import dataclass

            _LABEL_FIELDS = ("name", "ghost")

            @dataclass(frozen=True)
            class ThingSpec:
                name: str = ""

                def content_hash(self):
                    return self.name
            """,
            rules=["spec-hash-fields"],
        )
        assert rule_ids(result) == ["spec-hash-fields"]
        assert "ghost" in result.findings[0].message

    def test_declared_exclusions_matching_fields_are_clean(self, tmp_path):
        result = lint_source(
            tmp_path,
            """
            from dataclasses import dataclass

            _LABEL_FIELDS = ("name",)
            _EXECUTION_FIELDS = ("backend",)

            @dataclass(frozen=True)
            class ThingSpec:
                name: str = ""
                backend: str = "auto"
                payload_value: float = 0.0

                def content_hash(self):
                    data = {"backend": self.backend, "name": self.name}
                    for excluded in _LABEL_FIELDS + _EXECUTION_FIELDS:
                        data.pop(excluded, None)
                    return str(data)
            """,
            rules=["spec-hash-fields"],
        )
        assert result.findings == []

    def test_runtime_crosscheck_catches_inherited_field(self, tmp_path, monkeypatch):
        # A field inherited from a base class is invisible in the subclass
        # AST: only the import-and-diff cross-check can see it.
        package = tmp_path / "lintfix_inherit_pkg"
        package.mkdir()
        (package / "__init__.py").write_text("")
        (package / "mod.py").write_text(
            textwrap.dedent(
                """
                from dataclasses import dataclass

                @dataclass(frozen=True)
                class Base:
                    hidden_extra: int = 0

                @dataclass(frozen=True)
                class DerivedSpec(Base):
                    name: str = ""

                    def content_hash(self):
                        return self.name
                """
            )
        )
        monkeypatch.syspath_prepend(str(tmp_path))
        importlib.invalidate_caches()
        result = lint_paths([package / "mod.py"], rule_ids=["spec-hash-fields"])
        assert rule_ids(result) == ["spec-hash-fields"]
        assert "hidden_extra" in result.findings[0].message

    def test_real_spec_modules_pass_the_crosscheck(self):
        src = REPO_ROOT / "src" / "repro"
        result = lint_paths(
            [
                src / "engine" / "spec.py",
                src / "campaign" / "definition.py",
                src / "timeseries" / "spec.py",
            ],
            rule_ids=["spec-hash-fields"],
        )
        assert result.findings == []


class TestFrozenMutation:
    def test_flags_setattr_outside_sanctioned_scopes(self, tmp_path):
        result = lint_source(
            tmp_path,
            """
            def sneaky(obj):
                object.__setattr__(obj, "x", 1)
            """,
            rules=["frozen-mutation"],
        )
        assert rule_ids(result) == ["frozen-mutation"]

    def test_post_init_and_with_derivations_are_clean(self, tmp_path):
        result = lint_source(
            tmp_path,
            """
            from dataclasses import dataclass

            @dataclass(frozen=True)
            class Value:
                x: int = 0

                def __post_init__(self):
                    object.__setattr__(self, "x", int(self.x))

                def with_x(self, x):
                    derived = object.__new__(Value)
                    object.__setattr__(derived, "x", x)
                    return derived
            """,
            rules=["frozen-mutation"],
        )
        assert result.findings == []

    def test_module_level_setattr_flagged(self, tmp_path):
        result = lint_source(
            tmp_path,
            """
            class C:
                pass
            object.__setattr__(C(), "x", 1)
            """,
            rules=["frozen-mutation"],
        )
        assert rule_ids(result) == ["frozen-mutation"]


class TestDurableWrite:
    def test_flags_append_mode_open(self, tmp_path):
        result = lint_source(
            tmp_path,
            """
            def log(path, line):
                with open(path, "a") as handle:
                    handle.write(line)
            """,
            rules=["durable-write"],
        )
        assert rule_ids(result) == ["durable-write"]

    def test_flags_path_open_append_and_os_o_append(self, tmp_path):
        result = lint_source(
            tmp_path,
            """
            import os
            def appenders(path):
                handle = path.open("ab")
                fd = os.open(path, os.O_WRONLY | os.O_APPEND)
                return handle, fd
            """,
            rules=["durable-write"],
        )
        assert rule_ids(result) == ["durable-write", "durable-write"]

    def test_write_modes_and_allowlisted_modules_are_clean(self, tmp_path):
        clean = lint_source(
            tmp_path,
            """
            def write(path, text):
                with open(path, "w") as handle:
                    handle.write(text)
                with path.open("rb") as handle:
                    return handle.read()
            """,
            rules=["durable-write"],
        )
        assert clean.findings == []
        package = tmp_path / "repro" / "telemetry"
        package.mkdir(parents=True)
        (tmp_path / "repro" / "__init__.py").write_text("")
        (package / "__init__.py").write_text("")
        module = package / "progress.py"
        module.write_text("def appender(path):\n    return path.open('ab')\n")
        allowlisted = lint_paths([module], rule_ids=["durable-write"])
        assert allowlisted.findings == []


class TestSuppression:
    def test_same_line_directive(self, tmp_path):
        result = lint_source(
            tmp_path,
            """
            import time
            def stamp():
                return time.time()  # repro-lint: disable=wall-clock
            """,
            rules=["wall-clock"],
        )
        assert result.findings == []
        assert result.suppressed == 1

    def test_comment_line_above_covers_next_line(self, tmp_path):
        result = lint_source(
            tmp_path,
            """
            import time
            def stamp():
                # repro-lint: disable=wall-clock
                return time.time()
            """,
            rules=["wall-clock"],
        )
        assert result.findings == []
        assert result.suppressed == 1

    def test_wrong_rule_id_does_not_suppress(self, tmp_path):
        result = lint_source(
            tmp_path,
            """
            import time
            def stamp():
                return time.time()  # repro-lint: disable=global-rng
            """,
            rules=["wall-clock"],
        )
        assert rule_ids(result) == ["wall-clock"]

    def test_disable_all_wildcard(self, tmp_path):
        result = lint_source(
            tmp_path,
            """
            import time
            def stamp():
                return time.time()  # repro-lint: disable=all
            """,
            rules=["wall-clock"],
        )
        assert result.findings == []

    def test_suppressions_table_parsing(self):
        table = suppressions_for(
            "x = 1  # repro-lint: disable=a,b\n# repro-lint: disable=c\ny = 2\n"
        )
        assert table[1] == frozenset({"a", "b"})
        assert table[3] == frozenset({"c"})
        finding = Finding("c", "f.py", None, 3, 0, "<module>", "y = 2", "")
        assert is_suppressed(finding, table)


class TestRunnerMechanics:
    def test_fingerprint_survives_line_shifts(self, tmp_path):
        source = "import time\ndef stamp():\n    return time.time()\n"
        shifted = "import time\n\n\n# padding\ndef stamp():\n    return time.time()\n"
        first = lint_source(tmp_path, source, rules=["wall-clock"], name="a.py")
        second = lint_source(tmp_path, shifted, rules=["wall-clock"], name="a.py")
        assert first.findings[0].line != second.findings[0].line
        assert first.findings[0].fingerprint() == second.findings[0].fingerprint()

    def test_syntax_error_reported_not_raised(self, tmp_path):
        path = tmp_path / "broken.py"
        path.write_text("def broken(:\n")
        result = lint_paths([path])
        assert result.exit_code == 2
        assert any("syntax error" in error for error in result.errors)

    def test_walk_order_is_sorted_and_skips_pycache(self, tmp_path):
        (tmp_path / "b.py").write_text("")
        (tmp_path / "a.py").write_text("")
        cache_dir = tmp_path / "__pycache__"
        cache_dir.mkdir()
        (cache_dir / "c.py").write_text("")
        files = list(iter_python_files([tmp_path]))
        assert files == [tmp_path / "a.py", tmp_path / "b.py"]
