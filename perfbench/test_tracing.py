"""Per-layer aggregation of spans.

    python3 -m pytest perfbench
"""

from __future__ import annotations

import tracing


def test_self_time_excludes_child_spans_and_counts_add_up():
    spans = [
        ["cli.parse", 0.0, 10.0, -1, 0, None],
        ["wavepacket.propagate", 1.0, 7.0, 0, 0, None],
        ["numerics.line_superposition", 2.0, 3.0, 1, 0, {"numerics.line_superposition.melem": 2.5}],
        ["numerics.line_superposition", 4.0, 6.0, 1, 0, {"numerics.line_superposition.melem": 2.5}],
        ["cli.parse", 20.0, 21.0, -1, 1, None],
    ]
    first, second = tracing.per_operation(spans, 2)
    assert first["cli.parse.busy_s"] == 4.0
    assert first["wavepacket.propagate.busy_s"] == 3.0
    assert first["numerics.line_superposition.busy_s"] == 3.0
    assert first["numerics.line_superposition.calls"] == 2
    assert first["numerics.line_superposition.melem"] == 5.0
    assert first["numerics.busy_s"] == 3.0
    assert tracing.module_busy(first) == 10.0
    assert second["cli.parse.busy_s"] == 1.0 and "wavepacket.busy_s" not in second
