"""Source guard: signed permutations are enumerated in one place.

exterior._signed_perms is the one table behind every antisymmetric index
operation; no other module may enumerate permutations or bring back the
hand-rolled sign and antisymmetrizer helpers.
"""

import re
from pathlib import Path

import g2lab

SRC = Path(g2lab.__file__).parent


def test_only_exterior_enumerates_permutations():
    offenders = []
    for path in sorted(SRC.glob("*.py")):
        text = path.read_text()
        if path.name != "exterior.py" and re.search(
                r"import[^\n]*\bpermutations\b", text):
            offenders.append(f"{path.name}: imports permutations")
        for name in ("_perm_sign", "_alt4", "_alt3_last"):
            if name in text:
                offenders.append(f"{path.name}: {name}")
    assert offenders == []
