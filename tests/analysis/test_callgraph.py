"""Whole-program call graph: indexing, resolution, edges, bindings."""

import textwrap

from repro.analysis.callgraph import Program, module_identity


def build(tmp_path, files):
    for name, source in files.items():
        path = tmp_path / name
        path.parent.mkdir(parents=True, exist_ok=True)
        path.write_text(textwrap.dedent(source), encoding="utf-8")
    return Program.build([tmp_path])


class TestModuleIdentity:
    def test_bare_file_is_its_stem(self, tmp_path):
        path = tmp_path / "solo.py"
        path.write_text("x = 1\n", encoding="utf-8")
        assert module_identity(path) == ("solo", False)

    def test_package_chain_recovered(self, tmp_path):
        pkg = tmp_path / "pkg" / "sub"
        pkg.mkdir(parents=True)
        (tmp_path / "pkg" / "__init__.py").write_text("", encoding="utf-8")
        (pkg / "__init__.py").write_text("", encoding="utf-8")
        mod = pkg / "mod.py"
        mod.write_text("x = 1\n", encoding="utf-8")
        assert module_identity(mod) == ("pkg.sub.mod", False)
        assert module_identity(pkg / "__init__.py") == ("pkg.sub", True)


class TestIndexing:
    def test_functions_methods_closures_lambdas(self, tmp_path):
        program = build(
            tmp_path,
            {"m.py":"""
            def top():
                def inner():
                    pass
                return inner

            class C:
                def method(self):
                    pass

            f = lambda x: x + 1
            """},
        )
        names = set(program.functions)
        assert "m.top" in names
        assert "m.top.<locals>.inner" in names
        assert "m.C.method" in names
        assert any(".<lambda:" in n for n in names)

    def test_defs_inside_compound_statements_indexed(self, tmp_path):
        program = build(
            tmp_path,
            {"m.py":"""
            import sys

            if sys.platform != "nowhere":
                def gated():
                    for _ in range(2):
                        def deep():
                            pass
            """},
        )
        assert "m.gated" in program.functions
        assert "m.gated.<locals>.deep" in program.functions

    def test_scope_facts(self, tmp_path):
        program = build(
            tmp_path,
            {"m.py":"""
            COUNTER = 0

            def outer(a, b):
                c = a + b

                def inner():
                    nonlocal c
                    global COUNTER
                    c = 1
                    COUNTER = 2
                    yield c
                return inner
            """},
        )
        outer = program.functions["m.outer"]
        inner = program.functions["m.outer.<locals>.inner"]
        assert {"a", "b", "c", "inner"} <= outer.local_names
        assert "c" in inner.enclosing_names
        assert inner.declared_nonlocal == {"c"}
        assert inner.declared_global == {"COUNTER"}
        assert inner.is_generator
        assert not outer.is_generator
        assert "COUNTER" in program.modules["m"].module_globals


class TestEdges:
    def test_direct_and_aliased_calls(self, tmp_path):
        program = build(
            tmp_path,
            {"m.py":"""
            def helper():
                pass

            def caller():
                helper()
                h = helper
                h()
            """},
        )
        assert "m.helper" in program.callees("m.caller")

    def test_cross_module_import_edge(self, tmp_path):
        program = build(
            tmp_path,
            {"pkg/__init__.py": "",
            "pkg/a.py":"""
            def work():
                pass
            """,
            "pkg/b.py":"""
            from pkg.a import work

            def driver():
                work()
            """},
        )
        assert "pkg.a.work" in program.callees("pkg.b.driver")

    def test_relative_import_edge(self, tmp_path):
        program = build(
            tmp_path,
            {"pkg/__init__.py": "",
            "pkg/a.py":"""
            def work():
                pass
            """,
            "pkg/b.py":"""
            from .a import work

            def driver():
                work()
            """},
        )
        assert "pkg.a.work" in program.callees("pkg.b.driver")

    def test_function_local_import_edge(self, tmp_path):
        """A name a function imports is a local that names the imported
        definition: calls through it, through an alias of it and through
        a relative import get their edges; a class gets its ``__init__``."""
        program = build(
            tmp_path,
            {"pkg/__init__.py": "",
            "pkg/a.py":"""
            def helper():
                pass

            class Tool:
                def __init__(self):
                    pass
            """,
            "pkg/b.py":"""
            def direct():
                from pkg.a import helper
                return helper()

            def aliased():
                from pkg.a import helper as h
                again = h
                again()

            def relative():
                from .a import Tool
                return Tool()

            def shadowed():
                helper = None
                helper()
            """},
        )
        assert program.callees("pkg.b.direct") == {"pkg.a.helper"}
        assert program.callees("pkg.b.aliased") == {"pkg.a.helper"}
        assert program.callees("pkg.b.relative") == {"pkg.a.Tool.__init__"}
        assert program.callees("pkg.b.shadowed") == set()

    def test_another_functions_import_does_not_resolve_an_attribute(self, tmp_path):
        """An attribute call's head resolves in its own scope: a module that
        another function imports as ``m`` does not make ``m.helper()`` on a
        parameter, a local or an outer binding a call into that module."""
        program = build(
            tmp_path,
            {"pkg/__init__.py": "",
            "pkg/a.py":"""
            def helper():
                pass
            """,
            "pkg/b.py":"""
            def a():
                import pkg.a as m
                return m.helper()

            def b(m):
                return m.helper()

            def local():
                m = object()
                return m.helper()

            def closure():
                import pkg.a as m

                def inner():
                    return m.helper()

                def shadowing(m):
                    return m.helper()
                return inner, shadowing
            """},
        )
        assert program.callees("pkg.b.a") == {"pkg.a.helper"}
        assert program.callees("pkg.b.b") == set()
        assert program.callees("pkg.b.local") == set()
        assert program.callees("pkg.b.closure.<locals>.inner") == {"pkg.a.helper"}
        assert program.callees("pkg.b.closure.<locals>.shadowing") == set()

    def test_self_method_dispatch_follows_bases(self, tmp_path):
        program = build(
            tmp_path,
            {"m.py":"""
            class Base:
                def shared(self):
                    pass

            class Child(Base):
                def run(self):
                    self.shared()
            """},
        )
        assert "m.Base.shared" in program.callees("m.Child.run")

    def test_local_instance_method_dispatch(self, tmp_path):
        program = build(
            tmp_path,
            {"m.py":"""
            class Lane:
                def ship(self):
                    pass

            def driver():
                lane = Lane()
                lane.ship()
            """},
        )
        assert "m.Lane.ship" in program.callees("m.driver")

    def test_functools_partial_target(self, tmp_path):
        program = build(
            tmp_path,
            {"m.py":"""
            import functools

            def work(x, y):
                pass

            def driver(run):
                run(functools.partial(work, 1))
            """},
        )
        assert "m.work" in program.callees("m.driver")

    def test_reference_edge_for_passed_callable(self, tmp_path):
        program = build(
            tmp_path,
            {"m.py":"""
            def transform(item):
                pass

            def driver(engine):
                engine.submit(transform)
            """},
        )
        assert "m.transform" in program.callees("m.driver")

    def test_unresolvable_receiver_contributes_no_edge(self, tmp_path):
        program = build(
            tmp_path,
            {"m.py":"""
            def driver(task):
                worker, payload = task
                worker.run(payload)
            """},
        )
        assert program.callees("m.driver") == set()

    def test_transitive_callees(self, tmp_path):
        program = build(
            tmp_path,
            {"m.py":"""
            def c():
                pass

            def b():
                c()

            def a():
                b()
            """},
        )
        # A call chain resolves edge by edge.
        assert program.callees("m.a") == {"m.b"}
        assert program.callees("m.b") == {"m.c"}
        assert program.callees("m.c") == set()


class TestBindings:
    def test_flow_stage_registration(self, tmp_path):
        program = build(
            tmp_path,
            {"m.py":"""
            def transform(items):
                return items

            def register(flow, config):
                flow.stage("work", transform, cache_params={"v": 1})
                flow.stage("anon", transform)
            """},
        )
        bindings = {
            (b.label, b.declared) for b in program.cache_bindings
        }
        assert bindings == {("'work'", True), ("'anon'", False)}

    def test_transforms_dict_idiom(self, tmp_path):
        program = build(
            tmp_path,
            {"m.py":"""
            def acquire(items):
                return items

            def process(items):
                return items

            def run(config):
                return build_flow(
                    transforms={"acquire": acquire, "process": process},
                    cache_params={"seed": 1},
                )
            """},
        )
        labels = {b.label for b in program.cache_bindings}
        assert labels == {"'acquire'", "'process'"}
        assert all(b.declared for b in program.cache_bindings)
        assert all(b.caller_qualname == "m.run" for b in program.cache_bindings)

    def test_map_shards_binding_cached_and_uncached(self, tmp_path):
        program = build(
            tmp_path,
            {"m.py":"""
            def shard_fn(task):
                return task

            def cached(ctx, items):
                ctx.map_shards(shard_fn, items, cache_keys=["k"],
                               cache_params={"v": 1})

            def uncached(ctx, items):
                ctx.map_shards(shard_fn, items)
            """},
        )
        assert sorted(
            (b.via, b.cached) for b in program.shard_bindings
        ) == [("map_shards", False), ("map_shards", True)]
        # The cached fan-out also appears as a shard-kind cache binding.
        assert [
            (b.kind, b.declared) for b in program.cache_bindings
        ] == [("shard", True)]

    def test_shard_pool_map_binding(self, tmp_path):
        program = build(
            tmp_path,
            {"m.py":"""
            from repro.core.shards import ShardPool

            def shard_fn(task):
                return task

            def driver(items):
                pool = ShardPool(workers=2)
                pool.map(shard_fn, items)
            """},
        )
        assert [b.via for b in program.shard_bindings] == ["ShardPool.map"]

    def test_parse_error_recorded_not_fatal(self, tmp_path):
        program = build(
            tmp_path,
            {"ok.py": "x = 1\n", "broken.py": "def broken(:\n"},
        )
        assert "ok" in program.modules
        assert len(program.parse_errors) == 1


class TestRealTree:
    def test_src_repro_resolves_the_figure_flows(self, src_analysis):
        program = src_analysis.program
        assert program.parse_errors == {}
        process = "repro.arecibo.pipeline.run_arecibo_pipeline.<locals>.process"
        assert process in program.functions
        assert "repro.arecibo.pipeline._search_pointing_shard" in (
            program.callees(process)
        )
