"""Golden answers: the engine's answers on a fixed corpus, pinned by digest."""

import hashlib
import sys
from pathlib import Path

sys.path.insert(0, str(Path(__file__).resolve().parent.parent / "tools"))

import answers  # noqa: E402

# sha256 of `python3 tools/answers.py`'s output.  A change that announces a
# new verdict, witness, certificate or pair answer updates it.
DIGEST = "2ad6343a3b69056a37167be4e8fbc70ce87371a23ff76fd488d7cc2076eb4d76"


def test_answers_match_the_pinned_digest():
    digest = hashlib.sha256()
    for line in answers.lines():
        digest.update(line.encode() + b"\n")
    assert digest.hexdigest() == DIGEST, (
        "the engine's answers changed; to list them, run `python3 tools/answers.py` "
        "in a checkout of the parent commit and in this one, redirect each to a file, "
        "and diff the two files"
    )
