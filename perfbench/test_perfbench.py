"""Self-tests of the benchmark's tracer and output checks.

    PYTHONPATH=src python3 -m pytest -q perfbench
"""

import json

import checks
import run
import spans
from hondafgl import cli


def traced_job(job):
    tracer = spans.Tracer()
    before = spans.bindings()
    tracer.install()
    try:
        patched = spans.bindings()
        status, out, _ = run.call_cli(cli, job)
    finally:
        tracer.uninstall()
    assert all(patched[k] is not v for k, v in before.items())
    assert all(spans.bindings()[k] is v for k, v in before.items())
    assert status == 0
    return tracer.stats, out.decode()


def test_tracer_restores_every_binding_and_charges_every_pair():
    stats, out = traced_job("compute --p 2 --s 2 --level 3")
    assert checks.check("compute --p 2 --s 2 --level 3".split(), out) is None
    assert stats["engine.build_tower.calls"] == 1
    assert stats["engine.extend.calls"] == 2
    assert stats["witt.family.calls"] == 2
    assert stats["cli.main.s"] >= stats["engine.build_tower.s"] >= stats["engine.extend.s"] > 0
    owned = sum(v for k, v in stats.items() if k.endswith(".mul_pairs"))
    assert owned == stats["ring.mul.term_pairs"] > 0
    assert stats["ring.poly_new.calls"] > stats["ring.mul.calls"] > 0


def test_tracer_sees_calls_through_from_imports():
    # relation_set reaches build_tower and elementary_symmetric_all through
    # the names chern imported, not through engine or ring.
    stats, out = traced_job("chern --p 2 --s 2 --k 1")
    assert checks.check("chern --p 2 --s 2 --k 1".split(), out) is None
    assert stats["engine.build_tower.calls"] == 1
    assert stats["ring.esym.calls"] == 2
    assert stats["chern.relations.mul_pairs"] > 0
    assert stats["chern.guard_projected"] == 2 * stats["engine.top_terms"]


def test_every_per_layer_metric_has_a_source():
    spec = json.loads((run.ROOT / "BENCHMARK.json").read_text())
    derived = {"proc.start_s", "proc.import_s", "trace.wall_s", "trace.overhead_s", "ring.mul.out_per_pair"}
    assert {m["name"] for m in spec["per_layer"]} <= set(spans.Tracer().stats) | derived
    assert {m["name"] for m in spec["end_to_end"]} == {"wall_s", "setup_s", "peak_rss_mib"}


def test_checks_reject_wrong_outputs():
    header = "# pseries p=2 s=2 level=6 k=2 multiplier=4 valid_below=x^64\n"
    assert checks.check("pseries --p 2 --s 2 --level 6 --k 2".split(), header + "[4](x) = x^16\n") is None
    assert checks.check("pseries --p 2 --s 2 --level 6 --k 2".split(), header + "[4](x) = x^16 + x^17\n")
    vacuous = "# pseries p=2 s=2 level=3 k=2 multiplier=4 valid_below=x^8\n[4](x) = 0\n"
    assert checks.check("pseries --p 2 --s 2 --level 3 --k 2".split(), vacuous)

    job = "compute --p 2 --s 2 --level 3 --verify-degree-bound"
    _, out, _ = run.call_cli(cli, job)
    good = out.decode()
    assert checks.check(job.split(), good) is None
    header, poly, *rest = good.splitlines()
    asymmetric = "\n".join([header, poly + " + x^2*y", *rest])
    assert "symmetric" in checks.check(job.split(), asymmetric)
    assert checks.check(job.split(), good.replace("degree bound: pass", "degree bound: FAIL"))

    chern = "chern --p 2 --s 2 --k 1"
    _, out, _ = run.call_cli(cli, chern)
    lines = out.decode().splitlines()
    assert checks.check(chern.split(), "\n".join(lines[:-1])) == "expected 2 relations"


def test_failures_count_digest_and_status():
    failures = run.Failures()
    header = "# pseries p=2 s=2 level=6 k=2 multiplier=4 valid_below=x^64\n"
    out = (header + "[4](x) = x^16\n").encode()
    digest = run.hashlib.sha256(out).hexdigest()
    job = "pseries --p 2 --s 2 --level 6 --k 2"
    failures.record(job, 0, out, b"", digest)
    failures.record(job, 0, out + b"\n", b"", digest)
    failures.record(job, 3, out, b"", digest)
    assert (failures.attempted, failures.failed) == (3, 2)
