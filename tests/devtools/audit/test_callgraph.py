"""Tests for the conservative name-resolution call graph."""

from repro.devtools.audit.callgraph import CallGraph
from repro.devtools.audit.project import ProjectIndex


def graph_over(write_tree, files) -> CallGraph:
    return CallGraph(ProjectIndex.build([write_tree(files)]))


class TestResolution:
    def test_module_level_function_call(self, write_tree):
        graph = graph_over(write_tree, {
            "mod.py": """\
                def helper():
                    return 1


                def caller():
                    return helper()
                """,
        })
        assert "repro.mod.helper" in graph.edges["repro.mod.caller"]

    def test_cross_module_import_call(self, write_tree):
        graph = graph_over(write_tree, {
            "a.py": "def helper():\n    return 1\n",
            "b.py": """\
                from repro.a import helper


                def caller():
                    return helper()
                """,
        })
        assert "repro.a.helper" in graph.edges["repro.b.caller"]

    def test_self_method_call(self, write_tree):
        graph = graph_over(write_tree, {
            "mod.py": """\
                class Zone:
                    def lookup(self):
                        return self._miss()

                    def _miss(self):
                        return None
                """,
        })
        assert "repro.mod.Zone._miss" in graph.edges["repro.mod.Zone.lookup"]

    def test_typed_field_receiver(self, write_tree):
        """``self.entry.touch()`` resolves through the field annotation."""
        graph = graph_over(write_tree, {
            "mod.py": """\
                class Entry:
                    def touch(self):
                        return None


                class Cache:
                    entry: Entry

                    def hit(self):
                        return self.entry.touch()
                """,
        })
        assert "repro.mod.Entry.touch" in graph.edges["repro.mod.Cache.hit"]

    def test_dict_get_receiver(self, write_tree):
        """``self._entries.get(k).touch()`` sees the dict value type."""
        graph = graph_over(write_tree, {
            "mod.py": """\
                class Entry:
                    def touch(self):
                        return None


                class Cache:
                    _entries: dict[str, Entry]

                    def hit(self, key):
                        found = self._entries.get(key)
                        return found.touch()
                """,
        })
        assert "repro.mod.Entry.touch" in graph.edges["repro.mod.Cache.hit"]

    def test_constructor_call_reaches_init(self, write_tree):
        graph = graph_over(write_tree, {
            "mod.py": """\
                class Entry:
                    def __init__(self):
                        self.count = 0


                def build():
                    return Entry()
                """,
        })
        assert "repro.mod.Entry.__init__" in graph.edges["repro.mod.build"]

    def test_super_call_resolves_through_bases(self, write_tree):
        graph = graph_over(write_tree, {
            "mod.py": """\
                class Base:
                    def setup(self):
                        return 1


                class Child(Base):
                    def setup(self):
                        return super().setup()
                """,
        })
        assert "repro.mod.Base.setup" in graph.edges["repro.mod.Child.setup"]


class TestReferences:
    def test_references_still_count_as_edges(self, write_tree):
        """Taint/mutation closure must flow through handed-off functions."""
        graph = graph_over(write_tree, {
            "mod.py": """\
                def work(item):
                    return item


                def fan_out(pool, items):
                    return pool.map(work, items)
                """,
        })
        assert "repro.mod.work" in graph.reachable_from("repro.mod.fan_out")


class TestReachability:
    FILES = {
        "mod.py": """\
            def a():
                return b()


            def b():
                return c()


            def c():
                return 1


            def island():
                return 2
            """,
    }

    def test_reachable_from_is_transitive(self, write_tree):
        graph = graph_over(write_tree, self.FILES)
        reachable = graph.reachable_from("repro.mod.a")
        assert "repro.mod.c" in reachable
        assert "repro.mod.island" not in reachable

    def test_callers_is_the_reverse_map(self, write_tree):
        graph = graph_over(write_tree, self.FILES)
        assert "repro.mod.b" in graph.callers["repro.mod.c"]

    def test_path_renders_the_chain(self, write_tree):
        graph = graph_over(write_tree, self.FILES)
        assert graph.path("repro.mod.a", "repro.mod.c") == (
            "repro.mod.a", "repro.mod.b", "repro.mod.c",
        )
