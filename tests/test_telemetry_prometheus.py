"""Prometheus text-exposition conformance and the stdlib scrape endpoint."""

import os
import subprocess
import sys
import urllib.error
import urllib.request

import pytest

from repro.telemetry.metrics import MetricsRegistry
from repro.telemetry.prometheus import CONTENT_TYPE, MetricsHTTPServer, render_prometheus


@pytest.fixture
def registry():
    reg = MetricsRegistry()
    reg.counter("anor_rounds_total", "control rounds executed").inc(7)
    reg.gauge("anor_power_watts", "measured cluster power").set(3400.5)
    reg.gauge("anor_job_cap_watts", "per-job cap", job="job-1").set(200.0)
    reg.gauge("anor_job_cap_watts", "per-job cap", job="job-2").set(180.0)
    hist = reg.histogram("anor_err_ratio", "tracking error", buckets=(0.1, 0.5))
    for v in (0.05, 0.2, 0.2, 0.9):
        hist.observe(v)
    return reg


class TestRender:
    def test_help_and_type_headers(self, registry):
        text = render_prometheus(registry)
        assert "# HELP anor_rounds_total control rounds executed" in text
        assert "# TYPE anor_rounds_total counter" in text
        assert "# TYPE anor_power_watts gauge" in text
        assert "# TYPE anor_err_ratio histogram" in text

    def test_counter_and_gauge_samples(self, registry):
        lines = render_prometheus(registry).splitlines()
        assert "anor_rounds_total 7" in lines
        assert "anor_power_watts 3400.5" in lines

    def test_labelled_samples_sorted_and_quoted(self, registry):
        lines = render_prometheus(registry).splitlines()
        assert 'anor_job_cap_watts{job="job-1"} 200' in lines
        assert 'anor_job_cap_watts{job="job-2"} 180' in lines

    def test_histogram_buckets_cumulative_with_inf(self, registry):
        lines = render_prometheus(registry).splitlines()
        assert 'anor_err_ratio_bucket{le="0.1"} 1' in lines
        assert 'anor_err_ratio_bucket{le="0.5"} 3' in lines
        assert 'anor_err_ratio_bucket{le="+Inf"} 4' in lines
        assert "anor_err_ratio_sum 1.35" in lines
        assert "anor_err_ratio_count 4" in lines

    def test_label_values_escaped(self):
        reg = MetricsRegistry()
        reg.gauge("g", job='he said "hi"\nback\\slash').set(1.0)
        text = render_prometheus(reg)
        assert r'job="he said \"hi\"\nback\\slash"' in text

    def test_help_newlines_escaped(self):
        reg = MetricsRegistry()
        reg.counter("c_total", "line one\nline two")
        assert r"# HELP c_total line one\nline two" in render_prometheus(reg)

    def test_ends_with_newline(self, registry):
        assert render_prometheus(registry).endswith("\n")

    def test_empty_registry_renders(self):
        assert render_prometheus(MetricsRegistry()) == "\n"


class TestHTTPServer:
    def test_scrape_roundtrip(self, registry):
        server = MetricsHTTPServer(registry, port=0)
        try:
            assert server.port > 0
            with urllib.request.urlopen(server.url, timeout=10) as resp:
                assert resp.status == 200
                assert resp.headers["Content-Type"] == CONTENT_TYPE
                body = resp.read().decode("utf-8")
            assert body == render_prometheus(registry)
        finally:
            server.shutdown()

    def test_scrape_sees_live_updates(self, registry):
        server = MetricsHTTPServer(registry, port=0)
        try:
            registry.gauge("anor_power_watts").set(1234.0)
            body = urllib.request.urlopen(server.url, timeout=10).read().decode()
            assert "anor_power_watts 1234" in body
        finally:
            server.shutdown()

    def test_unknown_path_404(self, registry):
        server = MetricsHTTPServer(registry, port=0)
        try:
            with pytest.raises(urllib.error.HTTPError) as err:
                urllib.request.urlopen(
                    f"http://127.0.0.1:{server.port}/nope", timeout=10
                )
            assert err.value.code == 404
        finally:
            server.shutdown()


class TestImportCost:
    def test_the_framework_loads_no_http_server(self):
        """``http.server`` loads only when a run serves ``/metrics``."""
        probe = "import sys, repro.core.framework; print('http.server' in sys.modules)"
        out = subprocess.run(
            [sys.executable, "-c", probe], capture_output=True, text=True, check=True,
            env={**os.environ, "PYTHONPATH": os.pathsep.join(sys.path)},
        )
        assert out.stdout.strip() == "False"
