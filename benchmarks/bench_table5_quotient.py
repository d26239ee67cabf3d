"""Table 5 — end-to-end prediction vs QUOTIENT (ternary only).

Paper setting: Fig-4 network over QUOTIENT's WAN (24.3 MB/s, 40 ms RTT),
batch {1, 128}; ABNN2's binary row against QUOTIENT's published numbers
(no public code, so QUOTIENT runs as the two-binary-COT re-implementation
described in their paper).

Shapes that must reproduce (asserted):

* the two systems land in the same ballpark (paper: "comparable
  efficiency") — neither is >10x from the other on traffic;
* ABNN2's binary traffic undercuts QUOTIENT's ternary traffic (one
  (2 1)-OT per weight vs two COTs per weight).
"""

import pytest

from conftest import batches_for_table45, l32_offline_mb, paper_relu_mb
from repro.baselines.quotient import quotient_predict
from repro.core.protocol import secure_predict
from repro.net.netsim import LAN, WAN_QUOTIENT

MB = 1024 * 1024

#: Paper Table 5: QUOTIENT (LAN s, WAN s) and ABNN2 binary-l32 rows.
PAPER = {
    "QUOTIENT": {1: (0.356, 6.8), 128: (2.24, 8.3)},
    "ABNN2-binary": {1: (1.008, 2.44), 128: (3.13, 10.84)},
}


def _info(report, label, batch):
    compute = report.offline_client.seconds + report.online_client.seconds
    return {
        "system": label,
        "batch": batch,
        "compute_s": round(compute, 3),
        "comm_MB": round(report.total_bytes / MB, 2),
        "LAN_s": round(LAN.estimate_s(compute, report.total_bytes, report.rounds), 3),
        "WAN_s": round(WAN_QUOTIENT.estimate_s(compute, report.total_bytes, report.rounds), 3),
    }


@pytest.mark.parametrize("batch", batches_for_table45())
def test_table5_abnn2_binary(benchmark, batch, quantized_fig4, fig4_dataset, bench_group):
    qmodel = quantized_fig4["binary"]
    x = fig4_dataset.test_x[:batch]
    report = benchmark.pedantic(
        lambda: secure_predict(qmodel, x, group=bench_group, timeout_s=2400),
        rounds=1,
        iterations=1,
    )
    info = _info(report, "ABNN2-binary", batch)
    info["paper_LAN_WAN"] = PAPER["ABNN2-binary"].get(batch)
    info["offline_MB"] = round(report.offline_bytes / MB, 2)
    info.update(l32_offline_mb(qmodel, batch))
    info.update(paper_relu_mb(qmodel, batch))
    benchmark.extra_info.update(info)
    assert (report.predictions == qmodel.predict(x)).all()


@pytest.mark.parametrize("batch", batches_for_table45())
def test_table5_quotient(benchmark, batch, quantized_fig4, fig4_dataset, bench_group):
    qmodel = quantized_fig4["ternary"]
    x = fig4_dataset.test_x[:batch]
    report = benchmark.pedantic(
        lambda: quotient_predict(qmodel, x, group=bench_group, timeout_s=2400),
        rounds=1,
        iterations=1,
    )
    info = _info(report, "QUOTIENT-ternary", batch)
    info["paper_LAN_WAN"] = PAPER["QUOTIENT"].get(batch)
    # QUOTIENT's online phase runs this build's narrowed GC ReLU too.
    info.update(paper_relu_mb(qmodel, batch))
    benchmark.extra_info.update(info)
    assert (report.predictions == qmodel.predict(x)).all()


def test_table5_shapes(quantized_fig4, fig4_dataset, bench_group):
    """Comparable efficiency; binary ABNN2 leaner than ternary QUOTIENT."""
    x = fig4_dataset.test_x[:1]
    abnn2 = secure_predict(quantized_fig4["binary"], x, group=bench_group, timeout_s=2400)
    quotient = quotient_predict(
        quantized_fig4["ternary"], x, group=bench_group, timeout_s=2400
    )
    ratio = quotient.total_bytes / abnn2.total_bytes
    assert 1.0 < ratio < 10.0
