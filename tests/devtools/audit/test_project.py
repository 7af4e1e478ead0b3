"""Tests for the project-wide symbol table (``ProjectIndex``)."""

from repro.devtools.audit.project import OPAQUE, ProjectIndex


class TestIndexing:
    def test_classes_and_functions_get_qualified_names(self, write_tree):
        root = write_tree({
            "core/cache.py": """\
                class Cache:
                    def get(self, key):
                        return None


                def helper():
                    return 1
                """,
        })
        index = ProjectIndex.build([root])
        assert "repro.core.cache.Cache" in index.classes
        assert "repro.core.cache.Cache.get" in index.functions
        assert "repro.core.cache.helper" in index.functions

    def test_package_name_is_the_root_directory_name(self, write_tree):
        root = write_tree({"mod.py": "class Thing:\n    pass\n"},
                          package="otherpkg")
        index = ProjectIndex.build([root])
        assert "otherpkg.mod.Thing" in index.classes

    def test_init_module_drops_the_suffix(self, write_tree):
        root = write_tree({"sub/__init__.py": "VALUE = 1\n"})
        index = ProjectIndex.build([root])
        assert "repro.sub" in index.modules


class TestFieldInference:
    def test_class_body_annotations_become_fields(self, write_tree):
        root = write_tree({
            "mod.py": """\
                class Entry:
                    rank: int
                    label: str
                """,
        })
        cls = ProjectIndex.build([root]).classes["repro.mod.Entry"]
        assert set(cls.fields) == {"rank", "label"}

    def test_init_self_assignments_become_fields(self, write_tree):
        root = write_tree({
            "mod.py": """\
                class Entry:
                    def __init__(self, rank):
                        self.rank = rank
                        self._cache = {}
                """,
        })
        cls = ProjectIndex.build([root]).classes["repro.mod.Entry"]
        assert "rank" in cls.fields
        assert "_cache" in cls.fields

    def test_field_type_resolves_project_classes(self, write_tree):
        root = write_tree({
            "mod.py": """\
                class Inner:
                    pass


                class Outer:
                    inner: Inner
                    table: dict[str, Inner]
                """,
        })
        index = ProjectIndex.build([root])
        outer = index.classes["repro.mod.Outer"]
        assert outer.field_type("inner", index).name == "repro.mod.Inner"
        table = outer.field_type("table", index)
        assert table.kind == "dict"
        assert table.value_type().name == "repro.mod.Inner"
        assert outer.field_type("missing", index) is OPAQUE

    def test_annotation_names_capture_every_identifier(self, write_tree):
        root = write_tree({
            "mod.py": """\
                from typing import Callable


                class Spec:
                    hook: "Callable[[], None] | None"
                """,
        })
        cls = ProjectIndex.build([root]).classes["repro.mod.Spec"]
        assert "Callable" in cls.fields["hook"].annotation_names


class TestMarkersAndDecorators:
    def test_memo_markers_attach_to_the_enclosing_class(self, write_tree):
        root = write_tree({
            "mod.py": """\
                class Zone:
                    # repro: memo(resp: field=_cache, depends=[a], invalidator=none)
                    a: int
                    _cache: dict
                """,
        })
        cls = ProjectIndex.build([root]).classes["repro.mod.Zone"]
        assert len(cls.memos) == 1
        assert cls.memos[0].name == "resp"

    def test_boundary_marker(self, write_tree):
        root = write_tree({
            "mod.py": """\
                class Plain:
                    pass


                class Spec:
                    # repro: pickled-boundary
                    pass
                """,
        })
        index = ProjectIndex.build([root])
        assert index.classes["repro.mod.Spec"].pickled_boundary
        assert not index.classes["repro.mod.Plain"].pickled_boundary

    def test_invalidates_decorator_strings_are_extracted(self, write_tree):
        root = write_tree({
            "mod.py": """\
                from repro.annotations import invalidates


                class Zone:
                    @invalidates("resp", "sections")
                    def clear(self):
                        self._cache = None
                """,
        })
        fn = ProjectIndex.build([root]).functions["repro.mod.Zone.clear"]
        assert fn.invalidates == ("resp", "sections")

    def test_custom_reduce_is_detected(self, write_tree):
        root = write_tree({
            "mod.py": """\
                class Wire:
                    def __reduce__(self):
                        return (Wire, ())
                """,
        })
        cls = ProjectIndex.build([root]).classes["repro.mod.Wire"]
        assert cls.has_custom_reduce


class TestResolution:
    def test_imported_names_resolve_across_modules(self, write_tree):
        root = write_tree({
            "a.py": "class Thing:\n    pass\n",
            "b.py": "from repro.a import Thing\n",
        })
        index = ProjectIndex.build([root])
        assert index.resolve("repro.b", "Thing") == "repro.a.Thing"

    def test_source_for_maps_back_to_the_module(self, write_tree):
        root = write_tree({"mod.py": "class Thing:\n    pass\n"})
        index = ProjectIndex.build([root])
        source = index.source_for("repro.mod.Thing")
        assert source is not None
        assert source.display_path.endswith("mod.py")
