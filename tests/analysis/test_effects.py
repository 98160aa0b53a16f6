"""Effect extraction, fixpoint propagation, and cache_params coverage."""

import textwrap

from repro.analysis.callgraph import Program
from repro.analysis.effects import EffectMap, analyze_cache_params


def build(tmp_path, files):
    for name, source in files.items():
        path = tmp_path / name
        path.parent.mkdir(parents=True, exist_ok=True)
        path.write_text(textwrap.dedent(source), encoding="utf-8")
    return Program.build([tmp_path])


def effects_for(tmp_path, source, qualname, kinds=None):
    program = build(tmp_path, {"m.py": source})
    em = EffectMap.compute(program)
    return em.effects_of(qualname, kinds=kinds)


def kinds_of(effects):
    return sorted({e.kind for e in effects})


class TestLocalEffects:
    def test_global_stream_rng(self, tmp_path):
        effects = effects_for(
            tmp_path,
            """
            import random

            def draw():
                return random.random()
            """,
            "m.draw",
        )
        assert kinds_of(effects) == ["rng"]

    def test_seeded_constructor_is_invisible(self, tmp_path):
        effects = effects_for(
            tmp_path,
            """
            import random

            def draw(config):
                rng = random.Random(config.seed)
                return rng.random()
            """,
            "m.draw",
        )
        assert kinds_of(effects) == ["config_read"]

    def test_unseeded_constructor_flagged(self, tmp_path):
        effects = effects_for(
            tmp_path,
            """
            import random

            def draw():
                return random.Random()
            """,
            "m.draw",
        )
        assert kinds_of(effects) == ["rng"]

    def test_wall_clock(self, tmp_path):
        effects = effects_for(
            tmp_path,
            """
            import time

            def stamp():
                return time.perf_counter()
            """,
            "m.stamp",
        )
        assert kinds_of(effects) == ["wall_clock"]

    def test_config_reads_record_attr_names(self, tmp_path):
        program = build(
            tmp_path,
            {"m.py": """
            def work(config):
                x = config.threshold
                y = config.observation.duration
                z = self_like(config)

            def self_like(cfg):
                return cfg.seed
            """},
        )
        em = EffectMap.compute(program)
        assert sorted(em.config_reads("m.work")) == [
            "observation", "seed", "threshold",
        ]
        assert sorted(em.config_reads("m.self_like")) == ["seed"]

    def test_env_read(self, tmp_path):
        effects = effects_for(
            tmp_path,
            """
            import os

            def readenv():
                return os.getenv("HOME"), os.environ["PATH"]
            """,
            "m.readenv",
        )
        assert "env_read" in kinds_of(effects)

    def test_global_mutation_forms(self, tmp_path):
        effects = effects_for(
            tmp_path,
            """
            STATE = {}
            SEEN = []
            COUNT = 0

            def mutate():
                global COUNT
                COUNT = 1
                STATE["k"] = 2
                SEEN.append(3)
            """,
            "m.mutate",
        )
        details = {e.detail for e in effects}
        assert kinds_of(effects) == ["global_mutation"]
        assert any("COUNT" in d for d in details)
        assert any("STATE" in d for d in details)
        assert any("SEEN.append" in d for d in details)

    def test_local_mutation_is_not_an_effect(self, tmp_path):
        effects = effects_for(
            tmp_path,
            """
            def pure():
                acc = []
                acc.append(1)
                table = {}
                table["k"] = 2
                return acc, table
            """,
            "m.pure",
        )
        assert effects == []

    def test_closure_mutation(self, tmp_path):
        program = build(
            tmp_path,
            {"m.py": """
            def outer():
                hits = 0
                cache = {}

                def bump():
                    nonlocal hits
                    hits += 1
                    cache["k"] = hits
                return bump
            """},
        )
        em = EffectMap.compute(program)
        effects = em.effects_of("m.outer.<locals>.bump")
        assert kinds_of(effects) == ["closure_mutation"]

    def test_telemetry_emit(self, tmp_path):
        effects = effects_for(
            tmp_path,
            """
            def report(telemetry):
                telemetry.emit("stage.start", flow="f")
            """,
            "m.report",
        )
        assert kinds_of(effects) == ["telemetry"]

    def test_fault_state_via_injector(self, tmp_path):
        program = build(
            tmp_path,
            {"m.py": """
            def runner(engine):
                injector = engine.faults

                def process(items):
                    injector.fire("stage")
                    return items
                return process
            """},
        )
        em = EffectMap.compute(program)
        effects = em.effects_of("m.runner.<locals>.process")
        assert "fault_state" in kinds_of(effects)

    def test_handle_capture_module_level(self, tmp_path):
        effects = effects_for(
            tmp_path,
            """
            import threading

            LOCK = threading.Lock()

            def guarded():
                with LOCK:
                    return 1
            """,
            "m.guarded",
        )
        assert kinds_of(effects) == ["handle_capture"]
        assert effects[0].param == "lock"

    def test_handle_created_locally_is_not_a_capture(self, tmp_path):
        effects = effects_for(
            tmp_path,
            """
            def write(path, data):
                with open(path, "w") as handle:
                    handle.write(data)
            """,
            "m.write",
        )
        assert effects == []

    def test_sanctioned_telemetry_clock_site_excluded(self, tmp_path):
        program = build(
            tmp_path,
            {"repro/__init__.py": "",
             "repro/core/__init__.py": "",
             "repro/core/telemetry.py": """
            import time

            def emit_stamp():
                return time.time()
            """},
        )
        em = EffectMap.compute(program)
        assert em.effects_of("repro.core.telemetry.emit_stamp") == []


class TestPropagation:
    SOURCE = """
    import random

    def leaf():
        return random.random()

    def middle():
        return leaf()

    def top():
        return middle()

    def clean():
        return 1
    """

    def test_effects_propagate_to_closure(self, tmp_path):
        program = build(tmp_path, {"m.py": self.SOURCE})
        em = EffectMap.compute(program)
        for q in ("m.leaf", "m.middle", "m.top"):
            assert kinds_of(em.effects_of(q)) == ["rng"], q
        assert em.effects_of("m.clean") == []

    def test_chain_reconstructs_call_path(self, tmp_path):
        program = build(tmp_path, {"m.py": self.SOURCE})
        em = EffectMap.compute(program)
        effect = em.effects_of("m.top")[0]
        assert em.chain("m.top", effect) == ["m.top", "m.middle", "m.leaf"]

    def test_recursion_terminates(self, tmp_path):
        program = build(
            tmp_path,
            {"m.py": """
            import random

            def ping(n):
                random.random()
                return pong(n - 1) if n else 0

            def pong(n):
                return ping(n)
            """},
        )
        em = EffectMap.compute(program)
        assert kinds_of(em.effects_of("m.pong")) == ["rng"]


class TestCacheParamsCoverage:
    def coverage(self, tmp_path, source, expr_src):
        body = textwrap.dedent(source) + f"\nCACHE_EXPR = {expr_src}\n"
        program = build(tmp_path, {"m.py": body})
        module = program.modules["m"]
        expr = module.source.tree.body[-1].value
        return analyze_cache_params(expr, module, program)

    def test_repr_of_whole_config_covers_all(self, tmp_path):
        cov = self.coverage(tmp_path, "config = None", '{"p": repr(config)}')
        assert cov.covers("anything")
        assert cov.folds == [frozenset()]

    def test_replace_excludes_overridden_fields(self, tmp_path):
        cov = self.coverage(
            tmp_path,
            "from dataclasses import replace\nconfig = None",
            'repr(replace(config, workers=1, executor="thread"))',
        )
        assert cov.covers("seed")
        assert not cov.covers("workers")
        assert not cov.covers("executor")
        assert cov.folds == [{"executor", "workers"}]

    def test_named_attribute_covers_only_itself(self, tmp_path):
        cov = self.coverage(
            tmp_path, "config = None", '{"seed": config.seed}'
        )
        assert cov.covers("seed")
        assert not cov.covers("threshold")

    def test_no_config_reference_covers_nothing(self, tmp_path):
        cov = self.coverage(tmp_path, "config = None", '{"v": 3}')
        assert not cov.covers("seed")

    def test_fingerprint_helper_resolved_through_program(self, tmp_path):
        cov = self.coverage(
            tmp_path,
            """
            from dataclasses import replace

            def _fingerprint(config):
                return {"pipeline": repr(replace(config, workers=1))}
            """,
            "_fingerprint(config)",
        )
        assert cov.covers("seed")
        assert not cov.covers("workers")

    def test_helper_exclusions_not_masked_by_the_passed_arg(self, tmp_path):
        # Passing config *to* the helper is not a fold; only the helper's
        # return expression counts, so the replace() exclusions survive.
        cov = self.coverage(
            tmp_path,
            """
            from dataclasses import replace

            def _fingerprint(config):
                return repr(replace(config, n_items=0))
            """,
            "_fingerprint(config)",
        )
        assert cov.folds == [{"n_items"}]

    def test_real_arecibo_fingerprint_idiom(self):
        from pathlib import Path

        src = Path(__file__).resolve().parents[2] / "src" / "repro"
        program = Program.build([src / "arecibo" / "pipeline.py"])
        bindings = [b for b in program.cache_bindings if b.kind == "shard"]
        assert bindings
        cov = analyze_cache_params(
            bindings[0].cache_expr, bindings[0].module, program
        )
        assert cov.covers("seed")
        assert not cov.covers("workers")
        assert not cov.covers("n_pointings")
