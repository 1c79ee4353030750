"""The tracer's wrapping and its self-time arithmetic."""
import pytest

import kakeyalab
from kakeyalab import harmonic, tables, verify
from kakeyalab.ring import RingContext

import tracing


def test_install_wraps_every_bound_name_and_uninstall_restores():
    originals = (harmonic.fourier_forward, verify.fourier_forward, kakeyalab.fourier_forward,
                 tables.flats, RingContext.rank)
    tracer = tracing.Tracer()
    tracer.install()
    try:
        assert verify.fourier_forward is harmonic.fourier_forward is kakeyalab.fourier_forward
        assert verify.fourier_forward is not originals[0]
        ctx = RingContext.padic(2, 1, 2)
        f = verify.random_density(ctx, 0)
        verify.fourier_forward(f)
        verify.fourier_forward(f.to_float())
        ctx.rank((1, 1))
    finally:
        tracer.uninstall()
    assert (harmonic.fourier_forward, verify.fourier_forward, kakeyalab.fourier_forward,
            tables.flats, RingContext.rank) == originals
    metrics = tracer.metrics(passes=1)
    assert metrics["harmonic.fourier_forward.exact.calls"] == 1
    assert metrics["harmonic.fourier_forward.float.calls"] == 1
    assert metrics["ring.rank.calls"] >= 1
    assert metrics["verify.densities"] == 1


def test_self_time_and_nested_groups_count_once():
    tracer = tracing.Tracer()
    # one set-up span, then two passes; chain_constant nests appendix_constant
    tracer.spans = [
        ["tables.flat_table", 0.0, 2.0, -1, "setup/0"],
        ["maximal.chain_constant", 10.0, 13.0, -1, "pass0/0"],
        ["maximal.appendix_constant", 11.0, 12.0, 1, "pass0/0"],
        ["maximal.appendix_constant", 20.0, 21.0, -1, "pass1/0"],
    ]
    m = tracer.metrics(passes=2)
    assert m["tables.build_s"] == pytest.approx(2.0)
    assert m["tables.self_s"] == pytest.approx(2.0)
    assert m["maximal.constants.s"] == pytest.approx((3.0 + 1.0) / 2)
    assert m["maximal.constants.calls"] == pytest.approx(3 / 2)
    assert m["maximal.self_s"] == pytest.approx((2.0 + 1.0 + 1.0) / 2)


def test_cache_hits_open_no_span():
    tracing.clear_caches()
    tracer = tracing.Tracer()
    tracer.install()
    try:
        ctx = RingContext.padic(3, 1, 2)
        tables.coord_grid(ctx)
        tables.coord_grid(ctx)
    finally:
        tracer.uninstall()
    assert [s[0] for s in tracer.spans] == ["tables.coord_grid"]
    m = tracer.metrics(passes=1)
    assert (m["tables.misses"], m["tables.hits"]) == (1, 1)
    assert m["tables.bytes"] == ctx.size * ctx.dimension * 8
