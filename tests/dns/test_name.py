"""Unit + property tests for domain names."""

import pickle

import pytest
from hypothesis import given, strategies as st

from repro.dns.errors import NameParseError
from repro.dns.name import MAX_LABEL_LENGTH, Name, root_name


def labels_strategy():
    label = st.text(
        alphabet="abcdefghijklmnopqrstuvwxyz0123456789-_",
        min_size=1,
        max_size=12,
    )
    return st.lists(label, min_size=0, max_size=5)


class TestParsing:
    def test_simple_name(self):
        name = Name.from_text("www.ucla.edu")
        assert name.labels == ("www", "ucla", "edu")

    def test_trailing_dot_is_optional(self):
        assert Name.from_text("ucla.edu.") == Name.from_text("ucla.edu")

    def test_case_is_folded(self):
        assert Name.from_text("WWW.UCLA.EDU") == Name.from_text("www.ucla.edu")

    @pytest.mark.parametrize("text", ["", "."])
    def test_root_forms(self, text):
        assert Name.from_text(text) is root_name()

    @pytest.mark.parametrize("bad", ["a..b", ".leading", "sp ace.com", "a$.com"])
    def test_rejects_malformed(self, bad):
        with pytest.raises(NameParseError):
            Name.from_text(bad)

    def test_rejects_oversized_label(self):
        with pytest.raises(NameParseError):
            Name.from_text("a" * (MAX_LABEL_LENGTH + 1) + ".com")

    def test_rejects_oversized_name(self):
        label = "a" * 60
        text = ".".join([label] * 5)
        with pytest.raises(NameParseError):
            Name.from_text(text)


class TestStructure:
    def test_parent_strips_leftmost(self):
        assert Name.from_text("www.ucla.edu").parent() == Name.from_text("ucla.edu")

    def test_root_has_no_parent(self):
        with pytest.raises(ValueError):
            root_name().parent()

    def test_child_prepends(self):
        assert Name.from_text("edu").child("ucla") == Name.from_text("ucla.edu")

    def test_child_rejects_bad_label(self):
        with pytest.raises(NameParseError):
            root_name().child("has space")

    def test_subdomain_relation(self):
        edu = Name.from_text("edu")
        ucla = Name.from_text("ucla.edu")
        assert ucla.is_subdomain_of(edu)
        assert ucla.is_subdomain_of(ucla)
        assert not edu.is_subdomain_of(ucla)
        assert ucla.is_subdomain_of(root_name())

    def test_suffix_label_match_is_not_subdomain(self):
        # myucla.edu is NOT under ucla.edu despite the string suffix.
        assert not Name.from_text("xucla.edu").is_subdomain_of(
            Name.from_text("ucla.edu")
        )

    def test_ancestors_order(self):
        chain = list(Name.from_text("www.cs.ucla.edu").ancestors())
        assert [str(n) for n in chain] == [
            "www.cs.ucla.edu.",
            "cs.ucla.edu.",
            "ucla.edu.",
            "edu.",
            ".",
        ]

    def test_common_ancestor(self):
        a = Name.from_text("www.cs.ucla.edu")
        b = Name.from_text("mail.ee.ucla.edu")
        assert a.common_ancestor(b) == Name.from_text("ucla.edu")

    def test_common_ancestor_disjoint_is_root(self):
        a = Name.from_text("a.com")
        b = Name.from_text("b.net")
        assert a.common_ancestor(b) is root_name()

    def test_depth_and_wire_length(self):
        assert root_name().depth() == 0
        assert root_name().wire_length() == 1
        name = Name.from_text("ab.cd")
        assert name.depth() == 2
        assert name.wire_length() == 1 + 3 + 3


class TestValueSemantics:
    def test_interning_gives_identity(self):
        assert Name.from_text("a.com") is Name.from_text("a.com")

    def test_hash_consistency(self):
        name = Name.from_text("x.org")
        assert hash(name) == hash(Name(("x", "org")))

    def test_equal_labels_are_one_object_however_made(self):
        """Identity is the only equality Name has, so every constructor
        must hand back the interned instance."""
        name = Name.from_text("www.one.example")
        assert Name.from_text("WWW.One.Example.") is name
        assert Name.from_text("one.example").child("www") is name
        assert Name.from_text("deep.www.one.example").parent() is name
        assert Name.from_text("deep.www.one.example").ancestors()[1] is name
        assert Name.__eq__ is object.__eq__ and Name.__hash__ is object.__hash__

    def test_pickle_round_trip_is_the_original(self):
        name = Name.from_text("pickled.example")
        for protocol in range(pickle.HIGHEST_PROTOCOL + 1):
            assert pickle.loads(pickle.dumps(name, protocol)) is name
        assert pickle.loads(pickle.dumps({name: [name]})) == {name: [name]}

    def test_ordering_is_by_reversed_labels(self):
        # Canonical DNS order sorts by rightmost label first.
        assert Name.from_text("a.com") < Name.from_text("b.com")
        assert Name.from_text("z.com") < Name.from_text("a.net")

    def test_str_roundtrip(self):
        text = "www.example.org."
        assert str(Name.from_text(text)) == text

    def test_immutability(self):
        name = Name.from_text("a.com")
        with pytest.raises(AttributeError):
            name.labels = ()


class TestProperties:
    @given(labels_strategy())
    def test_text_roundtrip(self, labels):
        name = Name(tuple(labels))
        assert Name.from_text(str(name)) == name

    @given(labels_strategy())
    def test_ancestors_are_subdomain_chain(self, labels):
        name = Name(tuple(labels))
        for ancestor in name.ancestors():
            assert name.is_subdomain_of(ancestor)

    @given(labels_strategy(), labels_strategy())
    def test_common_ancestor_is_ancestor_of_both(self, a_labels, b_labels):
        a, b = Name(tuple(a_labels)), Name(tuple(b_labels))
        ancestor = a.common_ancestor(b)
        assert a.is_subdomain_of(ancestor)
        assert b.is_subdomain_of(ancestor)

    @given(labels_strategy(), labels_strategy())
    def test_ordering_total_and_consistent(self, a_labels, b_labels):
        a, b = Name(tuple(a_labels)), Name(tuple(b_labels))
        assert (a < b) + (b < a) + (a == b) == 1

    @given(labels_strategy(), st.text(
        alphabet="abcdefghijklmnopqrstuvwxyz", min_size=1, max_size=10))
    def test_child_parent_inverse(self, labels, label):
        name = Name(tuple(labels))
        assert name.child(label).parent() == name
