"""Golden answers: the engine's answers on a fixed corpus, pinned by digest."""

import hashlib
import sys
from pathlib import Path

sys.path.insert(0, str(Path(__file__).resolve().parent.parent / "tools"))

import answers  # noqa: E402

# sha256 of `python3 tools/answers.py`'s output.  A change that announces a
# new verdict, witness, certificate or pair answer updates it.
DIGEST = "ad7e54f72f117caf82e436860c1118094ce3ff8c03337da35ce09e7824e8db90"


def test_answers_match_the_pinned_digest():
    digest = hashlib.sha256()
    for line in answers.lines():
        digest.update(line.encode() + b"\n")
    assert digest.hexdigest() == DIGEST, (
        "the engine's answers changed; to list them, run `python3 tools/answers.py` "
        "in a checkout of the parent commit and in this one, redirect each to a file, "
        "and diff the two files"
    )
