"""Every shipped rule: at least one trigger and one suppressed fixture."""

from repro.analysis.linter import Linter


def lint(tmp_path, source, name="mod.py", select=None):
    path = tmp_path / name
    path.write_text(source, encoding="utf-8")
    return Linter(select=select).lint_paths([path])


def flagged(findings, code):
    return [f for f in findings if f.code == code and not f.suppressed]


def silenced(findings, code):
    return [f for f in findings if f.code == code and f.suppressed]


class TestUnseededRng:
    def test_argless_default_rng_flagged(self, tmp_path):
        findings = lint(
            tmp_path, "import numpy as np\nrng = np.random.default_rng()\n"
        )
        assert len(flagged(findings, "RPR001")) == 1

    def test_argless_random_flagged(self, tmp_path):
        findings = lint(
            tmp_path, "from random import Random\nrng = Random()\n"
        )
        assert len(flagged(findings, "RPR001")) == 1

    def test_module_level_draw_flagged(self, tmp_path):
        findings = lint(
            tmp_path,
            "import random\nimport numpy as np\n"
            "x = random.random()\n"
            "y = np.random.normal()\n",
        )
        assert len(flagged(findings, "RPR001")) == 2

    def test_entropy_sources_flagged_even_with_args(self, tmp_path):
        findings = lint(
            tmp_path, "import secrets\ntoken = secrets.token_bytes(16)\n"
        )
        assert len(flagged(findings, "RPR001")) == 1

    def test_seeded_constructors_pass(self, tmp_path):
        findings = lint(
            tmp_path,
            "import random\nimport numpy as np\n"
            "a = np.random.default_rng(0)\n"
            "b = random.Random(42)\n"
            "c = np.random.default_rng(seed=7)\n",
        )
        assert flagged(findings, "RPR001") == []

    def test_local_rng_variable_not_flagged(self, tmp_path):
        findings = lint(
            tmp_path,
            "def f(rng):\n    return rng.random()\n",
        )
        assert flagged(findings, "RPR001") == []

    def test_noqa_suppresses(self, tmp_path):
        findings = lint(
            tmp_path,
            "import numpy as np\n"
            "rng = np.random.default_rng()  # repro: noqa[RPR001]\n",
        )
        assert flagged(findings, "RPR001") == []
        assert len(silenced(findings, "RPR001")) == 1


class TestWallClock:
    def test_time_time_flagged(self, tmp_path):
        findings = lint(tmp_path, "import time\nt = time.time()\n")
        assert len(flagged(findings, "RPR002")) == 1

    def test_monotonic_and_perf_counter_flagged(self, tmp_path):
        findings = lint(
            tmp_path,
            "import time\na = time.monotonic()\nb = time.perf_counter()\n",
        )
        assert len(flagged(findings, "RPR002")) == 2

    def test_datetime_now_flagged_only_argless(self, tmp_path):
        findings = lint(
            tmp_path,
            "import datetime\n"
            "a = datetime.datetime.now()\n"
            "b = datetime.datetime.now(datetime.timezone.utc)\n",
        )
        assert [f.line for f in flagged(findings, "RPR002")] == [2]

    def test_sanctioned_telemetry_site_allowlisted(self, tmp_path):
        core = tmp_path / "repro" / "core"
        core.mkdir(parents=True)
        findings = lint(
            core,
            "import time\nwall = time.time()\n",
            name="telemetry.py",
        )
        assert flagged(findings, "RPR002") == []
        allowed = silenced(findings, "RPR002")
        assert [f.suppression for f in allowed] == ["allowlist"]

    def test_noqa_suppresses(self, tmp_path):
        findings = lint(
            tmp_path,
            "import time\nstart = time.perf_counter()  # repro: noqa[RPR002]\n",
        )
        assert flagged(findings, "RPR002") == []
        assert len(silenced(findings, "RPR002")) == 1


class TestTelemetryKinds:
    def test_unregistered_literal_kind_flagged(self, tmp_path):
        findings = lint(tmp_path, "bus.emit('stage.wrote', 'x')\n")
        assert len(flagged(findings, "RPR003")) == 1

    def test_registered_kinds_pass(self, tmp_path):
        findings = lint(
            tmp_path,
            "bus.emit('stage.start', 'x')\n"
            "bus.emit(kind='fault.injected', name='y')\n",
        )
        assert flagged(findings, "RPR003") == []

    def test_dynamic_kind_ignored(self, tmp_path):
        findings = lint(tmp_path, "bus.emit(kind_variable, 'x')\n")
        assert flagged(findings, "RPR003") == []

    def test_noqa_suppresses(self, tmp_path):
        findings = lint(
            tmp_path,
            "bus.emit('totally.new', 'x')  # repro: noqa[RPR003]\n",
        )
        assert flagged(findings, "RPR003") == []
        assert len(silenced(findings, "RPR003")) == 1


class TestUnorderedIteration:
    def test_set_loop_with_append_flagged(self, tmp_path):
        findings = lint(
            tmp_path,
            "names = {'b', 'a'}\n"
            "out = []\n"
            "for name in names:\n"
            "    out.append(name)\n",
        )
        assert len(flagged(findings, "RPR004")) == 1

    def test_list_comprehension_over_set_flagged(self, tmp_path):
        findings = lint(tmp_path, "rows = [n for n in {'b', 'a'}]\n")
        assert len(flagged(findings, "RPR004")) == 1

    def test_sorted_set_passes(self, tmp_path):
        findings = lint(
            tmp_path,
            "names = {'b', 'a'}\n"
            "out = []\n"
            "for name in sorted(names):\n"
            "    out.append(name)\n"
            "rows = [n for n in sorted(names)]\n",
        )
        assert flagged(findings, "RPR004") == []

    def test_order_free_reduction_passes(self, tmp_path):
        findings = lint(
            tmp_path,
            "values = {3.0, 1.0}\n"
            "best = 0.0\n"
            "for value in values:\n"
            "    best = max(best, value)\n",
        )
        assert flagged(findings, "RPR004") == []

    def test_dict_iteration_passes(self, tmp_path):
        findings = lint(
            tmp_path,
            "table = {'a': 1}\n"
            "out = []\n"
            "for value in table.values():\n"
            "    out.append(value)\n",
        )
        assert flagged(findings, "RPR004") == []

    def test_noqa_suppresses(self, tmp_path):
        findings = lint(
            tmp_path,
            "out = []\n"
            "for n in {'b', 'a'}:  # repro: noqa[RPR004]\n"
            "    out.append(n)\n",
        )
        assert flagged(findings, "RPR004") == []
        assert len(silenced(findings, "RPR004")) == 1


_STAGE_PRELUDE = (
    "from repro.core.dataflow import DataFlow\n"
    "def transform(inputs, ctx):\n"
    "    return config.threshold\n"
    "flow = DataFlow('f')\n"
)


class TestUndeclaredCacheParams:
    """The retired RPR005's fixtures, held to RPR101's undeclared case:
    each defect is reported once, by one rule."""

    def test_config_reading_stage_without_cache_params_flagged(self, tmp_path):
        findings = lint(
            tmp_path, _STAGE_PRELUDE + "flow.stage('s', transform)\n"
        )
        assert [f.code for f in findings] == ["RPR101"]
        assert "declares no cache_params" in findings[0].message

    def test_cache_params_none_still_flagged(self, tmp_path):
        findings = lint(
            tmp_path,
            _STAGE_PRELUDE + "flow.stage('s', transform, cache_params=None)\n",
        )
        assert [f.code for f in findings] == ["RPR101"]

    def test_declared_cache_params_pass(self, tmp_path):
        findings = lint(
            tmp_path,
            _STAGE_PRELUDE
            + "flow.stage('s', transform, cache_params={'pipeline': repr(config)})\n",
        )
        assert findings == []

    def test_config_free_transform_passes(self, tmp_path):
        findings = lint(
            tmp_path,
            "def clean(inputs, ctx):\n"
            "    return inputs\n"
            "flow.stage('s', clean)\n",
        )
        assert findings == []

    def test_stage_constructor_checked(self, tmp_path):
        findings = lint(
            tmp_path,
            "from repro.core.dataflow import Stage\n"
            "def transform(inputs, ctx):\n"
            "    return cfg.release\n"
            "stage = Stage('s', transform)\n",
        )
        assert [f.code for f in findings] == ["RPR101"]

    def test_noqa_suppresses(self, tmp_path):
        findings = lint(
            tmp_path,
            _STAGE_PRELUDE
            + "flow.stage('s', transform)  # repro: noqa[RPR101]\n",
        )
        assert flagged(findings, "RPR101") == []
        assert len(silenced(findings, "RPR101")) == 1
