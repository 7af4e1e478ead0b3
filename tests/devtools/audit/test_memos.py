"""Tests for the ``# repro:`` annotation grammar and marker scanner."""

import textwrap

import pytest

from repro.devtools.audit.memos import (
    MemoDeclError,
    NO_INVALIDATOR,
    parse_memo_decls,
    scan_marker_lines,
)


def markers_of(source: str) -> dict:
    return scan_marker_lines(textwrap.dedent(source))


class TestMarkerScanning:
    def test_single_line_marker(self):
        markers = markers_of("""\
            class Zone:
                # repro: memo(response: field=_cache, depends=[a], invalidator=none)
                pass
            """)
        assert markers == {
            2: "memo(response: field=_cache, depends=[a], invalidator=none)"
        }

    def test_continuation_lines_merge_until_parens_balance(self):
        markers = markers_of("""\
            class Zone:
                # repro: memo(response: field=_cache,
                #   depends=[a, b, c],
                #   invalidator=_clear)
                pass
            """)
        assert markers == {
            2: (
                "memo(response: field=_cache, depends=[a, b, c], "
                "invalidator=_clear)"
            )
        }

    def test_marker_text_inside_docstring_is_not_a_marker(self):
        """The scanner tokenizes: prose quoting the grammar never parses."""
        markers = markers_of('''\
            def explain():
                """The grammar is # repro: memo(broken syntax here."""
                return 1
            ''')
        assert markers == {}

    def test_marker_text_inside_string_literal_is_not_a_marker(self):
        markers = markers_of("""\
            EXAMPLE = "# repro: pickled-boundary"
            """)
        assert markers == {}

    def test_ignore_suppressions_are_filtered_out(self):
        markers = markers_of("""\
            import time
            now = time.time()  # repro: ignore[REP001]
            # repro: pickled-boundary
            """)
        assert markers == {3: "pickled-boundary"}

    def test_bare_markers_pass_through(self):
        markers = markers_of("""\
            class Spec:
                # repro: pickled-boundary
                pass
            """)
        assert markers == {2: "pickled-boundary"}

    def test_unterminated_continuation_stops_at_non_comment(self):
        markers = markers_of("""\
            # repro: memo(response: field=_cache,
            x = 1
            """)
        # The body stays unbalanced; parse_memo_decls rejects it loudly.
        with pytest.raises(MemoDeclError):
            parse_memo_decls(markers)

    def test_syntactically_broken_source_yields_no_markers(self):
        assert scan_marker_lines("def broken(:\n") == {}


class TestMemoDeclParsing:
    def test_fields_and_lineno(self):
        decls = parse_memo_decls({
            7: "memo(response: field=_cache, depends=[a, b], "
               "invalidator=_clear)"
        })
        (decl,) = decls
        assert decl.name == "response"
        assert decl.field == "_cache"
        assert decl.depends == ("a", "b")
        assert decl.invalidator == "_clear"
        assert decl.lineno == 7
        assert decl.has_invalidator

    def test_invalidator_none_means_fill_only(self):
        (decl,) = parse_memo_decls({
            1: "memo(m: field=_f, depends=[x], invalidator=none)"
        })
        assert decl.invalidator == NO_INVALIDATOR
        assert not decl.has_invalidator

    def test_non_memo_markers_are_skipped(self):
        assert parse_memo_decls({1: "pickled-boundary"}) == ()

    def test_malformed_memo_raises(self):
        with pytest.raises(MemoDeclError, match="malformed memo"):
            parse_memo_decls({3: "memo(missing_the_field_part)"})

    def test_missing_depends_raises(self):
        with pytest.raises(MemoDeclError):
            parse_memo_decls({1: "memo(m: field=_f, invalidator=none)"})
