import time

import pytest

from quiverepi.quiver import (
    Arrow,
    CycleError,
    DuplicateIdentifier,
    KeyMismatch,
    ParseError,
    Quiver,
    block_layout,
    is_acyclic,
    parse_quiver,
    quiver_to_text,
)


class TestParse:
    def test_a2(self):
        q = parse_quiver("vertices 1 2\narrow a 1 2\n")
        assert q.vertices == ("1", "2")
        assert len(q.arrows) == 1
        assert q.arrow("a").source == "1"
        assert q.arrow("a").target == "2"

    def test_kronecker_parallel_arrows(self):
        q = parse_quiver("vertices 1 2\narrow a 1 2\narrow b 1 2\n")
        assert [a.name for a in q.arrows] == ["a", "b"]

    def test_loop_is_cycle(self):
        with pytest.raises(CycleError) as exc:
            parse_quiver("vertices 1\narrow a 1 1\n")
        assert exc.value.cycle == ["a"]

    def test_loop_below_the_root_is_the_whole_cycle(self):
        with pytest.raises(CycleError) as exc:
            parse_quiver("vertices 1 2\narrow p 1 2\narrow l 2 2\n")
        assert exc.value.cycle == ["l"]

    def test_comments_and_blank_lines(self):
        q = parse_quiver("# a quiver\nvertices 1 2  # inline\n\narrow a 1 2\n")
        assert q.vertices == ("1", "2")

    def test_duplicate_vertex(self):
        with pytest.raises(DuplicateIdentifier):
            parse_quiver("vertices 1 1\n")

    def test_duplicate_arrow(self):
        with pytest.raises(DuplicateIdentifier):
            parse_quiver("vertices 1 2\narrow a 1 2\narrow a 1 2\n")

    def test_undeclared_vertex(self):
        with pytest.raises(ParseError) as exc:
            parse_quiver("vertices 1 2\narrow a 1 3\n")
        assert exc.value.line == 2

    def test_arrow_before_vertices(self):
        with pytest.raises(ParseError):
            parse_quiver("arrow a 1 2\nvertices 1 2\n")

    def test_unknown_directive(self):
        with pytest.raises(ParseError):
            parse_quiver("vertices 1\nedge a 1 1\n")

    def test_round_trip(self):
        text = "vertices 1 2 3\narrow a 1 2\narrow b 2 3\n"
        q = parse_quiver(text)
        assert quiver_to_text(q) == text
        assert parse_quiver(quiver_to_text(q)) == q

    def test_long_path_parses_in_linear_time(self):
        # A_20000 took about 14 s when vertices and arrows were looked up in
        # lists; with a set and a dict it is a fraction of a second
        n = 20000
        text = ("vertices " + " ".join(map(str, range(n))) + "\n"
                + "".join(f"arrow a{i} {i} {i + 1}\n" for i in range(n - 1)))
        start = time.perf_counter()
        q = parse_quiver(text)
        assert time.perf_counter() - start < 3
        assert len(q.vertices) == n and q.arrows[-1] == Arrow(f"a{n - 2}", str(n - 2), str(n - 1))


class TestAcyclicity:
    def test_a2_acyclic(self):
        ok, cycle = is_acyclic(parse_quiver("vertices 1 2\narrow a 1 2\n"))
        assert ok and cycle is None

    def test_two_cycle_witness(self):
        q = Quiver(["1", "2"], [("a", "1", "2"), ("b", "2", "1")], require_acyclic=False)
        ok, cycle = is_acyclic(q)
        assert not ok
        assert sorted(cycle) == ["a", "b"]

    def test_empty_quiver(self):
        ok, cycle = is_acyclic(parse_quiver(""))
        assert ok and cycle is None


class TestBlockLayout:
    def test_a2_unit_dims(self, a2):
        lay = block_layout(a2, {"1": 1, "2": 1})
        assert lay.offsets == {"1": 0, "2": 1}
        assert lay.total == 2

    def test_a2_mixed_dims(self, a2):
        lay = block_layout(a2, {"1": 2, "2": 3})
        assert lay.offsets == {"1": 0, "2": 2}
        assert lay.total == 5

    def test_zero_module(self):
        q = parse_quiver("vertices 1\n")
        lay = block_layout(q, {"1": 0})
        assert lay.total == 0

    def test_ranges_partition(self, a3):
        lay = block_layout(a3, {"1": 2, "2": 0, "3": 3})
        seen = []
        for v in lay.order:
            seen.extend(lay.block_range(v))
        assert seen == list(range(lay.total))

    def test_key_mismatch(self, a2):
        with pytest.raises(KeyMismatch):
            block_layout(a2, {"1": 1})
        with pytest.raises(KeyMismatch):
            block_layout(a2, {"1": 1, "2": 1, "3": 1})
        with pytest.raises(KeyMismatch):
            block_layout(a2, {"1": -1, "2": 1})

    def test_declaration_order_not_numeric(self):
        q = parse_quiver("vertices 10 2\narrow a 10 2\n")
        lay = block_layout(q, {"10": 1, "2": 1})
        assert lay.offsets == {"10": 0, "2": 1}
