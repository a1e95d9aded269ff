"""Tests for floorplan geometry."""


import pytest

from repro.errors import ConfigurationError
from repro.thermal import Block, Floorplan, cmp_floorplan


class TestBlock:
    def test_area_and_edges(self):
        block = Block("b", x=1.0, y=2.0, width=3.0, height=4.0)
        assert block.area == 12.0
        assert block.x2 == 4.0
        assert block.y2 == 6.0
        assert block.center() == (2.5, 4.0)

    def test_nonpositive_size_rejected(self):
        with pytest.raises(ConfigurationError):
            Block("b", 0, 0, 0.0, 1.0)

    def test_shared_edge_side_by_side(self):
        a = Block("a", 0, 0, 1, 2)
        b = Block("b", 1, 0.5, 1, 2)
        assert a.shared_edge_length(b) == pytest.approx(1.5)
        assert b.shared_edge_length(a) == pytest.approx(1.5)

    def test_shared_edge_stacked(self):
        a = Block("a", 0, 0, 2, 1)
        b = Block("b", 0.5, 1, 2, 1)
        assert a.shared_edge_length(b) == pytest.approx(1.5)

    def test_no_shared_edge_when_separated(self):
        a = Block("a", 0, 0, 1, 1)
        b = Block("b", 2, 0, 1, 1)
        assert a.shared_edge_length(b) == 0.0

    def test_corner_touch_is_not_adjacency(self):
        a = Block("a", 0, 0, 1, 1)
        b = Block("b", 1, 1, 1, 1)
        assert a.shared_edge_length(b) == 0.0


class TestFloorplan:
    def test_duplicate_names_rejected(self):
        with pytest.raises(ConfigurationError):
            Floorplan(blocks=(Block("a", 0, 0, 1, 1), Block("a", 1, 0, 1, 1)))

    def test_empty_rejected(self):
        with pytest.raises(ConfigurationError):
            Floorplan(blocks=())

    def test_block_lookup(self):
        fp = Floorplan(blocks=(Block("a", 0, 0, 1, 1),))
        assert fp.block("a").name == "a"
        with pytest.raises(ConfigurationError):
            fp.block("missing")

    def test_adjacency_of_2x1_grid(self):
        fp = Floorplan(blocks=(Block("a", 0, 0, 1, 1), Block("b", 1, 0, 1, 1)))
        adjacency = fp.adjacency()
        assert adjacency == {("a", "b"): pytest.approx(1.0)}


class TestCMPFloorplan:
    def test_paper_die(self):
        # Table 1: 16 cores, 15.6 mm x 15.6 mm.
        fp = cmp_floorplan(16, die_side=15.6e-3)
        assert len(fp.blocks) == 17  # 16 cores + l2
        assert fp.total_area == pytest.approx((15.6e-3) ** 2)

    def test_core_names(self):
        fp = cmp_floorplan(4)
        assert {"core0", "core1", "core2", "core3", "l2"} == set(fp.names)

    def test_l2_fraction(self):
        fp = cmp_floorplan(16, die_side=1.0, l2_fraction=0.25)
        assert fp.block("l2").area == pytest.approx(0.25)

    def test_single_core(self):
        fp = cmp_floorplan(1)
        assert set(fp.names) == {"core0", "l2"}

    def test_non_square_counts(self):
        fp = cmp_floorplan(6)
        assert len([n for n in fp.names if n.startswith("core")]) == 6

    def test_zero_cores_rejected(self):
        with pytest.raises(ConfigurationError):
            cmp_floorplan(0)

    def test_cores_adjacent_to_l2_row(self):
        fp = cmp_floorplan(16)
        adjacency = fp.adjacency()
        l2_neighbours = {a if b == "l2" else b for a, b in adjacency if "l2" in (a, b)}
        # The bottom row of cores touches the L2 slab.
        assert len(l2_neighbours) >= 4
