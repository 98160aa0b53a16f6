"""RPR101-104: trigger / clean / suppressed fixtures, and the seeded bugs
the one-module rules (RPR001-004) provably miss."""

import textwrap

from repro.analysis.linter import Analysis, Linter, unsuppressed

MODULE_RULES = ["RPR001", "RPR002", "RPR003", "RPR004"]


def scan(tmp_path, files, select=None):
    for name, source in files.items():
        path = tmp_path / name
        path.parent.mkdir(parents=True, exist_ok=True)
        path.write_text(textwrap.dedent(source), encoding="utf-8")
    return Linter(select=select).lint(Analysis.build([tmp_path]))


def codes(findings):
    return sorted(f.code for f in unsuppressed(findings))


class TestRPR101CacheKey:
    TRIGGER = {
        "m.py": """
        def _threshold(config):
            return config.snr_threshold

        def search(items, config):
            cut = _threshold(config)
            return [i for i in items if i > cut]

        def register(flow, config):
            flow.stage("search", lambda items: search(items, config),
                       cache_params={"seed": config.seed})
        """
    }

    def test_trigger_uncovered_transitive_config_read(self, tmp_path):
        findings = scan(tmp_path, self.TRIGGER)
        hits = [f for f in findings if f.code == "RPR101"]
        assert len(hits) == 1
        assert ".snr_threshold" in hits[0].message
        assert "stale cache hits" in hits[0].message

    def test_seeded_bug_invisible_to_module_rules(self, tmp_path):
        """The config read lives in a helper, the cache_params at the
        registration site: no rule that looks at one function or one
        module sees both, so RPR001-004 alone stay silent."""
        assert scan(tmp_path, self.TRIGGER, select=MODULE_RULES) == []

    def test_trigger_undeclared_cache_params(self, tmp_path):
        findings = scan(
            tmp_path,
            {"m.py": """
            def search(items, config):
                return [i for i in items if i > config.snr_threshold]

            def register(flow, config):
                flow.stage("search", lambda items: search(items, config))
            """},
        )
        hits = [f for f in findings if f.code == "RPR101"]
        assert len(hits) == 1
        assert "declares no cache_params" in hits[0].message

    def test_declared_but_config_free_cache_params_flagged(self, tmp_path):
        """The loophole the retired RPR005 had: any non-None declaration
        satisfied it, even one that folds in no configuration at all."""
        findings = scan(
            tmp_path,
            {"m.py": """
            def transform(inputs, ctx):
                return config.threshold

            flow.stage('s', transform, cache_params={'pipeline': 'v1'})
            """},
        )
        assert codes(findings) == ["RPR101"]
        assert ".threshold" in findings[0].message

    NESTED_READER = """
    def transform(inputs, ctx):
        def cut():
            return config.threshold
        return [i for i in inputs if i > %s]

    flow.stage('s', transform)
    """

    def test_nested_reader_that_is_called_flags(self, tmp_path):
        findings = scan(tmp_path, {"m.py": self.NESTED_READER % "cut()"})
        assert codes(findings) == ["RPR101"]

    def test_nested_reader_never_called_is_not_a_read(self, tmp_path):
        """A nested function nothing calls cannot change the output; the
        retired RPR005 flagged it because it walked the whole body."""
        findings = scan(tmp_path, {"m.py": self.NESTED_READER % "0"})
        assert codes(findings) == []

    def test_clean_replace_fold_covers_helper_read(self, tmp_path):
        findings = scan(
            tmp_path,
            {"m.py": """
            from dataclasses import replace

            def _threshold(config):
                return config.snr_threshold

            def search(items, config):
                return [i for i in items if i > _threshold(config)]

            def register(flow, config):
                flow.stage("search", lambda items: search(items, config),
                           cache_params={"cfg": repr(replace(config, workers=1))})
            """},
        )
        assert codes(findings) == []

    def test_clean_excluded_field_not_read(self, tmp_path):
        findings = scan(
            tmp_path,
            {"m.py": """
            from dataclasses import replace

            def search(items, config):
                return [i for i in items if i > config.snr_threshold]

            def register(flow, config):
                flow.stage("search", lambda items: search(items, config),
                           cache_params={"cfg": repr(replace(config, workers=4))})
            """},
        )
        assert codes(findings) == []

    def test_suppressed_by_noqa(self, tmp_path):
        findings = scan(
            tmp_path,
            {"m.py": """
            def search(items, config):
                return [i for i in items if i > config.snr_threshold]

            def register(flow, config):
                flow.stage(  # repro: noqa[RPR101]
                    "search", lambda items: search(items, config),
                    cache_params={"seed": config.seed},
                )
            """},
        )
        hits = [f for f in findings if f.code == "RPR101"]
        assert len(hits) == 1
        assert hits[0].suppressed
        assert unsuppressed(findings) == []


class TestRPR102ShardSafety:
    TRIGGER = {
        "m.py": """
        SEEN = {}

        def _record(key, value):
            SEEN[key] = value

        def shard_fn(task):
            _record(task.key, task.value)
            return task.value

        def driver(ctx, items):
            ctx.map_shards(shard_fn, items)
        """
    }

    def test_trigger_global_mutation_via_helper(self, tmp_path):
        findings = scan(tmp_path, self.TRIGGER)
        hits = [f for f in findings if f.code == "RPR102"]
        assert len(hits) == 1
        assert "SEEN" in hits[0].message
        assert "racy under threads" in hits[0].message

    def test_seeded_bug_invisible_to_module_rules(self, tmp_path):
        """RPR001-004 have no concept of 'reachable from a shard call':
        a helper mutating a module global is clean to every one of them."""
        assert scan(tmp_path, self.TRIGGER, select=MODULE_RULES) == []

    def test_trigger_closure_over_enclosing_scope(self, tmp_path):
        findings = scan(
            tmp_path,
            {"m.py": """
            def driver(ctx, items):
                results = []

                def shard_fn(task):
                    results.append(task)
                    return task

                ctx.map_shards(shard_fn, items)
            """},
        )
        hits = [f for f in findings if f.code == "RPR102"]
        assert len(hits) == 1
        assert "results" in hits[0].message

    def test_clean_per_invocation_closure(self, tmp_path):
        """Cells created *inside* the shard function's own extent are
        per-invocation state, not shared — mirrors weblab's packer."""
        findings = scan(
            tmp_path,
            {"m.py": """
            def shard_fn(tasks):
                buffer = []

                def flush():
                    nonlocal buffer
                    out = list(buffer)
                    buffer = []
                    return out

                for task in tasks:
                    buffer.append(task)
                return flush()

            def driver(ctx, items):
                ctx.map_shards(shard_fn, items)
            """},
        )
        assert codes(findings) == []

    def test_clean_pure_shard(self, tmp_path):
        findings = scan(
            tmp_path,
            {"m.py": """
            def shard_fn(task):
                return task * 2

            def driver(ctx, items):
                ctx.map_shards(shard_fn, items)
            """},
        )
        assert codes(findings) == []

    def test_suppressed_by_noqa(self, tmp_path):
        findings = scan(
            tmp_path,
            {"m.py": """
            SEEN = {}

            def shard_fn(task):
                SEEN[task.key] = task.value
                return task.value

            def driver(ctx, items):
                ctx.map_shards(shard_fn, items)  # repro: noqa[RPR102]
            """},
        )
        hits = [f for f in findings if f.code == "RPR102"]
        assert len(hits) == 1 and hits[0].suppressed
        assert unsuppressed(findings) == []


class TestRPR103ProcessBoundary:
    def test_trigger_nested_shard_fn(self, tmp_path):
        findings = scan(
            tmp_path,
            {"m.py": """
            def driver(ctx, items, config):
                def shard_fn(task):
                    return task * config.scale

                ctx.map_shards(shard_fn, items)
            """},
        )
        hits = [f for f in findings if f.code == "RPR103"]
        assert len(hits) == 1
        assert "pickle" in hits[0].message

    def test_trigger_generator_shard_fn(self, tmp_path):
        findings = scan(
            tmp_path,
            {"m.py": """
            def shard_fn(tasks):
                for task in tasks:
                    yield task

            def driver(ctx, items):
                ctx.map_shards(shard_fn, items)
            """},
        )
        hits = [f for f in findings if f.code == "RPR103"]
        assert len(hits) == 1
        assert "generator" in hits[0].message

    CAPTURED_LOCK = {
        "m.py": """
        import threading

        LOCK = threading.Lock()

        def shard_fn(task):
            with LOCK:
                return task

        def driver(ctx, items):
            ctx.map_shards(shard_fn, items)
        """
    }

    def test_trigger_captured_lock(self, tmp_path):
        findings = scan(tmp_path, self.CAPTURED_LOCK)
        hits = [f for f in findings if f.code == "RPR103"]
        assert len(hits) == 1
        assert "fresh lock" in hits[0].message

    def test_seeded_bug_invisible_to_module_rules(self, tmp_path):
        """A module-level lock is clean to RPR001-004; only the shard
        binding makes it a process-boundary bug."""
        assert scan(tmp_path, self.CAPTURED_LOCK, select=MODULE_RULES) == []

    def test_clean_module_level_pure_fn(self, tmp_path):
        findings = scan(
            tmp_path,
            {"m.py": """
            def shard_fn(task):
                return task + 1

            def driver(ctx, items):
                ctx.map_shards(shard_fn, items)
            """},
        )
        assert codes(findings) == []

    def test_suppressed_by_noqa(self, tmp_path):
        findings = scan(
            tmp_path,
            {"m.py": """
            def shard_fn(tasks):
                for task in tasks:
                    yield task

            def driver(ctx, items):
                ctx.map_shards(shard_fn, items)  # repro: noqa[RPR103]
            """},
        )
        hits = [f for f in findings if f.code == "RPR103"]
        assert len(hits) == 1 and hits[0].suppressed
        assert unsuppressed(findings) == []


class TestRPR104TransitiveDeterminism:
    def test_trigger_rng_through_helper(self, tmp_path):
        findings = scan(
            tmp_path,
            {"m.py": """
            import random

            def _jitter(value):
                return value + random.random()

            def process(items, config):
                return [_jitter(i) for i in items]

            def register(flow, config):
                flow.stage("process", lambda items: process(items, config),
                           cache_params={"seed": config.seed})
            """},
        )
        hits = [f for f in findings if f.code == "RPR104"]
        assert len(hits) == 1
        assert "random.random()" in hits[0].message
        assert "_jitter" in hits[0].message  # the chain is named

    def test_trigger_wall_clock_through_helper(self, tmp_path):
        findings = scan(
            tmp_path,
            {"m.py": """
            import time

            def _stamp(record):
                record["at"] = time.time()
                return record

            def process(items, config):
                return [_stamp({"v": i}) for i in items]

            def register(flow, config):
                flow.stage("process", lambda items: process(items, config),
                           cache_params={"seed": config.seed})
            """},
        )
        hits = [f for f in findings if f.code == "RPR104"]
        assert len(hits) == 1
        assert "time.time()" in hits[0].message

    def test_seeded_bug_invisible_to_module_rules(self, tmp_path):
        """The draw is suppressed where it happens, so RPR001-004 report
        nothing unsuppressed; RPR104 still sees it leak into a cached
        transform two calls away."""
        tree = {"m.py": """
        import random

        def _jitter(value):
            return value + random.random()  # repro: noqa[RPR001]

        def process(items, config):
            return [_jitter(i) for i in items]

        def register(flow, config):
            flow.stage("process", lambda items: process(items, config),
                       cache_params={"seed": config.seed})
        """}
        assert codes(scan(tmp_path, tree, select=MODULE_RULES)) == []
        assert codes(scan(tmp_path, tree)) == ["RPR104"]

    def test_clean_seeded_rng(self, tmp_path):
        findings = scan(
            tmp_path,
            {"m.py": """
            import random

            def process(items, config):
                rng = random.Random(config.seed)
                return [i + rng.random() for i in items]

            def register(flow, config):
                flow.stage("process", lambda items: process(items, config),
                           cache_params={"seed": config.seed})
            """},
        )
        assert [f for f in findings if f.code == "RPR104"] == []

    def test_clean_clock_outside_cached_reach(self, tmp_path):
        """A wall-clock read elsewhere in the module is not a finding —
        only reachability from the cached transform matters."""
        findings = scan(
            tmp_path,
            {"m.py": """
            import time

            def heartbeat():  # repro: noqa[RPR002]
                return time.time()

            def process(items, config):
                return list(items)

            def register(flow, config):
                flow.stage("process", lambda items: process(items, config),
                           cache_params={"seed": config.seed})
            """},
        )
        assert [f for f in findings if f.code == "RPR104"] == []

    def test_suppressed_by_noqa(self, tmp_path):
        findings = scan(
            tmp_path,
            {"m.py": """
            import random

            def process(items, config):
                return [i + random.random() for i in items]  # repro: noqa[RPR001]

            def register(flow, config):
                flow.stage(  # repro: noqa[RPR104]
                    "process", lambda items: process(items, config),
                    cache_params={"seed": config.seed},
                )
            """},
        )
        hits = [f for f in findings if f.code == "RPR104"]
        assert len(hits) == 1 and hits[0].suppressed
        assert unsuppressed(findings) == []


class TestOnePassPlumbing:
    def test_select_narrows_deep_rules(self, tmp_path):
        findings = scan(
            tmp_path,
            {"m.py": """
            import random

            SEEN = {}

            def shard_fn(task):
                SEEN[task] = random.random()
                return task

            def driver(ctx, items):
                ctx.map_shards(shard_fn, items, cache_keys=["k"],
                               cache_params={"v": 1})
            """},
            select=["RPR102"],
        )
        assert codes(findings) == ["RPR102"]

    def test_parse_error_still_reported_as_rpr000(self, tmp_path):
        findings = scan(tmp_path, {"broken.py": "def broken(:\n"})
        assert codes(findings) == ["RPR000"]
