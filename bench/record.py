"""Write bench/expected.json from the current code.

    python3 bench/record.py

The expected results are the correctness gate of every benchmark run.
Record them again only in a change that means to alter an output, and say
so in that change: a change that keeps outputs must pass against the file
as it stands.
"""

from __future__ import annotations

import json
import sys
from pathlib import Path

HERE = Path(__file__).resolve().parent
sys.path.insert(0, str(HERE.parent / "src"))

import workloads as wl  # noqa: E402  (needs src on the path)
from ramify import numono  # noqa: E402
from ramify.fiber import analyze  # noqa: E402
from ramify.gen import verify_corpus  # noqa: E402

#: Covers of the default seed whose analyze report digests are recorded:
#: the first two rounds.
RECORDED_COVERS = 2 * len(wl.ANALYZE_DEGREES)


def record() -> dict:
    exhaustive = {
        ",".join(map(str, s)): wl.report_summary(
            verify_corpus(wl.stratum_spec(*s)))
        for s in wl.exhaustive_strata()}

    # every single-sample Morse genus-0 report is the same: the theorem
    # leaves one outcome per cover
    morse = wl.report_summary(verify_corpus(next(wl.morse_rounds(0))[0]))

    rounds = wl.analyze_rounds(wl.DEFAULT_SEED)
    covers = []
    while len(covers) < RECORDED_COVERS:
        covers.extend(next(rounds))
    digests = [wl.digest(analyze(c).to_json_dict()) for c in covers]

    curves = {}
    for text in wl.CURVES:
        try:
            report = numono.certify_projection(numono.parse_poly(text))
        except wl.REFUSALS as exc:
            curves[text] = {"error": type(exc).__name__}
        else:
            curves[text] = wl.curve_outcome(report)

    return {
        "corpus_exhaustive": exhaustive,
        "corpus_morse": {"per_cover": morse},
        "analyze_large": {"digests": {str(wl.DEFAULT_SEED): digests}},
        "curves": curves,
    }


def dumps(doc: dict) -> str:
    """JSON with one line per recorded entry."""
    sections = []
    for name, entries in doc.items():
        lines = ",\n".join(f"  {json.dumps(key)}: {json.dumps(value)}"
                           for key, value in entries.items())
        sections.append(f" {json.dumps(name)}: {{\n{lines}\n }}")
    return "{\n" + ",\n".join(sections) + "\n}\n"


if __name__ == "__main__":
    (HERE / "expected.json").write_text(dumps(record()))
