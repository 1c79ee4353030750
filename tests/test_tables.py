import ast
import inspect
import resource
from pathlib import Path

import numpy as np
import pytest

import kakeyalab
import kakeyalab.verify as verify
from kakeyalab import tables
from kakeyalab.maximal import coset_maxima
from kakeyalab.ring import RingContext
from kakeyalab.tables import TableMemoryError


class TestBlocks:
    @pytest.mark.parametrize("count, item_bytes, budget", [
        (10, 8, 24),  # blocks of 3, the last of 1
        (9, 8, 24),  # three whole blocks
        (5, 8, 1 << 20),  # one block of all five
        (1, 8, 8),
        (0, 8, 64),  # no block at all
    ])
    def test_slices_cover_the_range_in_order(self, count, item_bytes, budget):
        step = max(1, budget // item_bytes)
        got = tables.blocks(count, item_bytes, budget)
        assert [i for s in got for i in range(count)[s]] == list(range(count))
        assert all(s.step is None and s.start < s.stop <= count for s in got)
        assert [s.stop - s.start for s in got[:-1]] == [step] * (len(got) - 1)
        assert not got or 0 < got[-1].stop - got[-1].start <= step

    def test_a_block_holds_one_item_past_the_budget(self):
        assert tables.blocks(3, 1000, 10) == [slice(0, 1), slice(1, 2), slice(2, 3)]
        assert tables.blocks(2, 1000, 0) == [slice(0, 1), slice(1, 2)]

    def test_held_checks_the_first_block_only(self, monkeypatch):
        # blocks of 4, 4 and 2 items: held bytes an item times the first,
        # the largest, and no check without held
        asked = []
        monkeypatch.setattr(tables, "check_memory", asked.append)
        assert len(tables.blocks(10, 8, 32, held=5)) == 3
        assert asked == [5 * 4]
        tables.blocks(10, 8, 32)
        tables.blocks(1, 8, 32, held=7)  # a first block shorter than a step
        assert asked == [5 * 4, 7]

    def test_held_refuses_before_any_block_is_used(self, monkeypatch):
        # _stacks draws no trial of a chunk whose stack the planner refuses
        ctx = RingContext.padic(2, 2, 2)
        for k in (1, 2):
            tables.flats(ctx, k)  # the flats that draws read, cached before memory is cut
        drawn = []

        def draw(*args, _real=verify._draw):
            drawn.append(args)
            return _real(*args)

        monkeypatch.setattr(verify, "_draw", draw)
        monkeypatch.setattr(tables, "_STACK_BYTES", 8 * ctx.size * 3)
        monkeypatch.setattr(tables, "_physical_memory", lambda: 8 * ctx.size * 3 - 1)
        with pytest.raises(TableMemoryError) as err:
            next(verify._stacks(ctx, 0, 5, ctx.size))
        assert err.value.estimate == 8 * ctx.size * 3 and drawn == []
        monkeypatch.setattr(tables, "_physical_memory", lambda: 8 * ctx.size * 3)
        assert [lo for lo, _ in verify._stacks(ctx, 0, 5, ctx.size)] == [0, 3]
        assert len(drawn) == 5

    @pytest.mark.parametrize("bound", ["_GATHER_BYTES", "_BLOCK_BYTES", "_CHUNK_BYTES"])
    def test_a_patched_module_bound_is_honoured(self, monkeypatch, bound):
        # each bound is read when its sweep runs, not when it was defined
        ctx = RingContext.padic(3, 1, 2)
        rows = np.arange(2 * ctx.size, dtype=np.int64).reshape(2, ctx.size)
        want = coset_maxima(rows, ctx, 1), tables.coset_argmax(rows[0], ctx, 1)
        budgets = []

        def spy(count, item_bytes, budget, held=0, _real=tables.blocks):
            budgets.append(budget)
            return _real(count, item_bytes, budget, held)

        monkeypatch.setattr(tables, "blocks", spy)
        monkeypatch.setattr(tables, bound, 1)
        got = coset_maxima(rows, ctx, 1), tables.coset_argmax(rows[0], ctx, 1)
        assert 1 in budgets
        assert np.array_equal(got[0], want[0])
        assert all(np.array_equal(g, w) for g, w in zip(got[1], want[1]))


def _block_sizings(tree: ast.AST):
    """The calls max(1, a // b) whose a names a module bound (*_BYTES) or a budget."""
    for node in ast.walk(tree):
        if (isinstance(node, ast.Call) and isinstance(node.func, ast.Name) and node.func.id == "max"
                and len(node.args) == 2 and isinstance(node.args[1], ast.BinOp)
                and isinstance(node.args[1].op, ast.FloorDiv)):
            names = {n.id for n in ast.walk(node.args[1].left) if isinstance(n, ast.Name)}
            names |= {n.attr for n in ast.walk(node.args[1].left) if isinstance(n, ast.Attribute)}
            if any(x.endswith("_BYTES") or x == "budget" for x in names):
                yield node


def test_blocks_is_the_one_block_planner():
    # no module sizes a block or chunk of its own: every split is
    # tables.blocks, and the gather-sum row helper it replaced is gone
    assert not hasattr(tables, "_block_rows")
    src = Path(kakeyalab.__file__).parent
    found = {path.name: [node.lineno for node in _block_sizings(ast.parse(path.read_text()))]
             for path in src.glob("*.py")}
    lines, start = inspect.getsourcelines(tables.blocks)
    assert [start <= n < start + len(lines) for n in found.pop("tables.py")] == [True]
    assert {name: at for name, at in found.items() if at} == {}


class TestCheckMemory:
    def test_a_lower_address_space_limit_refuses(self, monkeypatch):
        # ulimit -v below physical memory: the limit is the bound, and the
        # refusal names it
        asked = []

        def getrlimit(which):
            asked.append(which)
            return 4096, resource.RLIM_INFINITY

        monkeypatch.setattr(tables, "_physical_memory", lambda: 1 << 20)
        monkeypatch.setattr(resource, "getrlimit", getrlimit)
        tables.check_memory(4096)
        with pytest.raises(TableMemoryError) as err:
            tables.check_memory(4097)
        assert err.value.estimate == 4097 and err.value.memory == 4096
        assert str(err.value) == ("table of 4097 bytes exceeds the address-space limit "
                                  "(RLIMIT_AS) of 4096 bytes")
        assert set(asked) == {resource.RLIMIT_AS}

    @pytest.mark.parametrize("limit", [resource.RLIM_INFINITY, 1 << 20, 4096],
                             ids=["unlimited", "above", "equal"])
    def test_an_unlimited_or_higher_limit_changes_nothing(self, monkeypatch, limit):
        monkeypatch.setattr(tables, "_physical_memory", lambda: 4096)
        monkeypatch.setattr(resource, "getrlimit", lambda which: (limit, limit))
        tables.check_memory(4096)
        with pytest.raises(TableMemoryError) as err:
            tables.check_memory(4097)
        assert str(err.value) == "table of 4097 bytes exceeds physical memory of 4096 bytes"

    def test_a_tower_past_the_limit_is_refused_before_any_level(self, monkeypatch):
        # under ulimit -v 700000, projmax on padic(2,4,4) asks for the
        # 775,290,880-byte k = 2 coset plan: refused on its estimate, where
        # numpy's MemoryError came only after its lower levels were built
        built = []
        monkeypatch.setattr(resource, "getrlimit", lambda which: (700_000 * 1024, resource.RLIM_INFINITY))
        monkeypatch.setattr(tables, "_physical_memory", lambda: 1 << 40)
        monkeypatch.setattr(tables, "_tower", lambda *args: built.append(args))
        with pytest.raises(TableMemoryError) as err:
            tables.coset_plan.__wrapped__(RingContext.padic(2, 4, 4), 2)
        assert err.value.estimate == 775_290_880 and err.value.memory == 716_800_000
        assert "address-space limit" in str(err.value) and built == []
