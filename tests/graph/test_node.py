"""Unit tests for PITL node and arc types."""

import sys
import unicodedata

import pytest

from repro.errors import GraphError
from repro.graph import Arc, NodeKind, StorageNode, TaskNode
from repro.graph.node import _check_name


class TestTaskNode:
    def test_defaults(self):
        n = TaskNode("t1")
        assert n.name == "t1"
        assert n.kind is NodeKind.TASK
        assert n.work == 1.0
        assert n.program is None
        assert not n.is_composite

    def test_composite_flag(self):
        n = TaskNode("c", kind=NodeKind.COMPOSITE)
        assert n.is_composite

    def test_label_and_meta(self):
        n = TaskNode("fanl", label="fan-out of L column", meta={"color": "bold"})
        assert n.label.startswith("fan-out")
        assert n.meta["color"] == "bold"

    def test_rejects_empty_name(self):
        with pytest.raises(GraphError):
            TaskNode("")

    def test_rejects_whitespace_name(self):
        with pytest.raises(GraphError):
            TaskNode("a b")

    def test_rejects_negative_work(self):
        with pytest.raises(GraphError):
            TaskNode("t", work=-1.0)

    def test_rejects_storage_kind(self):
        with pytest.raises(GraphError):
            TaskNode("t", kind=NodeKind.STORAGE)

    def test_hashable_by_name(self):
        assert hash(TaskNode("x")) == hash(TaskNode("x", work=5))


class TestStorageNode:
    def test_data_defaults_to_name(self):
        s = StorageNode("A")
        assert s.data == "A"
        assert s.kind is NodeKind.STORAGE

    def test_hashes_by_name(self):
        """Nodes are identified by name within a graph, as task nodes are."""
        assert hash(StorageNode("A", size=2.0)) == hash(StorageNode("A")) == hash("A")
        assert len({StorageNode("A"), StorageNode("A"), StorageNode("B")}) == 2

    def test_explicit_data_and_size(self):
        s = StorageNode("store_A", data="A", size=9.0)
        assert s.data == "A"
        assert s.size == 9.0

    def test_initial_value(self):
        s = StorageNode("b", initial=[1.0, 2.0, 3.0])
        assert s.initial == [1.0, 2.0, 3.0]

    def test_rejects_nonpositive_size(self):
        with pytest.raises(GraphError):
            StorageNode("A", size=0.0)

    def test_rejects_bad_name(self):
        with pytest.raises(GraphError):
            StorageNode("two words")


class TestArc:
    def test_basic(self):
        a = Arc("u", "v", var="x", size=3.0)
        assert (a.src, a.dst, a.var, a.size) == ("u", "v", "x", 3.0)

    def test_rejects_self_loop(self):
        with pytest.raises(GraphError):
            Arc("u", "u")

    def test_rejects_negative_size(self):
        with pytest.raises(GraphError):
            Arc("u", "v", size=-0.5)

    def test_renamed(self):
        a = Arc("u", "v", var="x", size=3.0)
        b = a.renamed(dst="w")
        assert (b.src, b.dst, b.var, b.size) == ("u", "w", "x", 3.0)
        assert a.dst == "v"  # original untouched (frozen)

    def test_frozen(self):
        a = Arc("u", "v")
        with pytest.raises(Exception):
            a.src = "z"  # type: ignore[misc]


class TestNameCheck:
    """``_check_name`` rejects exactly the names the per-character
    ``any(ch.isspace() for ch in name)`` scan used to reject."""

    #: every code point Python calls whitespace, grouped by Unicode category
    #: (Zs/Zl/Zp separators, and the Cc controls with a whitespace bidi class)
    WHITESPACE = [chr(cp) for cp in range(sys.maxunicode + 1) if chr(cp).isspace()]

    def test_the_whitespace_classes_are_all_covered(self):
        assert {unicodedata.category(ch) for ch in self.WHITESPACE} == {
            "Zs", "Zl", "Zp", "Cc"
        }
        assert {" ", "\t", "\n", "\r", "\x0b", "\x0c", "\x1c", "\x85", "\xa0",
                "\u2028", "\u2029", "\u3000"} <= set(self.WHITESPACE)

    @pytest.mark.parametrize("name", ["", None, 7, b"t", ("t",)], ids=repr)
    def test_rejects_empty_and_non_string_names(self, name):
        with pytest.raises(GraphError, match="non-empty string"):
            _check_name(name)

    @pytest.mark.parametrize("ch", WHITESPACE, ids=lambda ch: f"U+{ord(ch):04X}")
    @pytest.mark.parametrize("template", ["{}", "{}a", "a{}"])
    def test_rejects_whitespace_alone_leading_and_trailing(self, ch, template):
        with pytest.raises(GraphError, match="whitespace"):
            _check_name(template.format(ch))

    def test_accepts_every_name_without_whitespace(self):
        # format controls and marks that merely *look* blank are not whitespace
        for name in ["t", "outer.inner.t", "a\u200bb", "a\u2060b", "\ufeffa", "é", "名前", "a\x00b"]:
            assert _check_name(name) == name

    def test_agrees_with_the_per_character_scan_on_every_code_point(self):
        for cp in range(sys.maxunicode + 1):
            name = "a" + chr(cp) + "b"
            try:
                _check_name(name)
                rejected = False
            except GraphError:
                rejected = True
            assert rejected == any(ch.isspace() for ch in name), hex(cp)
