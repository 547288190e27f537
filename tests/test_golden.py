"""Byte-level regression digests of the qtc text of engine output.

Each digest is the sha256 of `dumps_qtc` of a character built from an
empty engine.  A change to any coefficient, monomial or the text format
shows up here even where the structural tests still hold.  Update a
digest only for a deliberate change of output, and say so in CHANGES.md.
"""

from __future__ import annotations

import hashlib

import pytest

from qtchar import DrinfeldPoly, Engine, build_lie_type, dumps_qtc

# (type, kind, node, digest); kind "kr" is the length-2 string at shift 0
# (length 1 is the fundamental itself)
CHARACTERS = [
    ("A2", "fund", 1, "10c6c53514187fd36d3dd28e954bd0c47106bd22400b8cf7972740e906107d88"),
    ("A2", "kr", 1, "624be9bfd7dfa256dd06a609becd384afbbf82ca3ca3384ec1c1853d3f4fa1c8"),
    ("A2", "fund", 2, "b0190604475bb6c63e92b693cf9609a1f12dd9b560a3ecee5aa26e18c9e178e2"),
    ("A2", "kr", 2, "ce90169c0c1e8a9a673aa98cfabe31a1e83096d99fe6b56a356198cc8014c118"),
    ("A3", "fund", 1, "d2202f1cba1b3ec88f6e23e752a3b54681b8e73569aed01c6666d5398565a4b8"),
    ("A3", "kr", 1, "b6b4a72a2722d95a00cb8a0305ac8511a5010121dfa3fd90d6654085e0998b06"),
    ("A3", "fund", 2, "70d1ff5abdcb7b63ca90d241ae04877dee490bd323c4061d884003b597a8ebaf"),
    ("A3", "kr", 2, "8fbe75ff3c0bf2a3621e69b7a5d8e3c093dfb77fb858eff122e9c1ea79a45c06"),
    ("A3", "fund", 3, "51fd46277f149594d9180ba3db0e0873a7deb611bd11299f326dde2ea86b57f0"),
    ("A3", "kr", 3, "441844967f9c86e34104273b6fdcf27be783246b16e8a106d718b1bba780f45a"),
    ("D4", "fund", 1, "e7ade0692d71692b03590578a29845f641c253aba2a6eb53cbd347881beaed1f"),
    ("D4", "kr", 1, "901f1c21ead6147cc98a7872cc65ea0e469d4abad727370104b1f5f5f7d22452"),
    ("D4", "fund", 2, "9ab6a3fad32f49860d625903b69a4a3f91519ad6d3dadc1bdb3f119dccbf7145"),
    ("D4", "kr", 2, "d6143d8f07bbf7bb0ea7407d86c1ecda2ccddc29f57088c834ba871b0b5cb7e0"),
    ("D4", "fund", 3, "3455167c5e345891e45f4670abfc1e466eb93d901cbda15ebbafbdf07fcd1b6d"),
    ("D4", "kr", 3, "515f8ae6d17d54234ec0163e76cdb5877d18f1f986a10ec79f3d4c17ac420986"),
    ("D4", "fund", 4, "6b7d97fca0cb4e48b44d49ccbd3fa7ec53107f1ced8a871d4477bf9d3827940e"),
    ("D4", "kr", 4, "68c609dd5691b72fe69877d6efdbfa9e80d9905e0f47aedaaee1d7c858a05fa8"),
]

# (type, node, string length, digest): patterns deeper than length 2.  The
# first two were computed before the node expansion was memoized, the next
# three before the fixpoint switched from standard to simple rows, and D4
# KR(2,5) before monomials were keyed by packed integers; the D4 KR(2,4)
# digest is also perfbench's fixpoint_cold reference
DEEPER = [
    ("D4", 2, 3, "0cc2321543e11431d8356979fcdc42c6d989b79cf31871945a4c420563f72e80"),
    ("E6", 1, 1, "6258f1c2de75d94b9c4f14dba3eb6b3c00b6e451e01653eb4ca14046598d9b90"),
    ("D4", 2, 4, "ed816c100c8edd03f54a3df0d43c75e882d002c043491201f15921f51a9e2183"),
    ("D5", 3, 2, "ea46843653f3d3212df9303049050a92da2c7ed998515ebe7f65cdadff725277"),
    ("E8", 1, 1, "8f08f3f4f8fa98033fd91f2866b9f4c18076b859ba54e40162b5846e667cbef6"),
    ("D4", 2, 5, "4ecf24620231d2a702b96cd16097b4cd3e72853442677a3167cc8ef372f6a00c"),
]

D4_P_2_02_STANDARD = "9427def67985c424160f985853c7f2ff0eed65cac0216e69d6c83100576c651e"
D4_P_2_02_SIMPLE = "d6143d8f07bbf7bb0ea7407d86c1ecda2ccddc29f57088c834ba871b0b5cb7e0"

# (type, roots, digest): standards computed while standard_char still
# folded with a product that twists each term pair by its v-exponents
STANDARDS = [
    ("D4", ((2, 0), (2, 2), (2, 4)), "795e79a43b5fe9039c4f6966e575b18b03279ed363214f87a8a022de6e07c5a7"),
    ("D4", ((1, 0), (2, 2), (3, 1), (4, 5)), "0db7f926cef434ebe12d487dbc039a03de3e6c5cf72ee12789884463fe340e5c"),
    ("D5", ((3, 0), (3, 2)), "bce9ea5843b4419fc61d0eba46c9996384ace10beca5838fc3c8cc28c62fbde7"),
    ("E6", ((1, 0), (6, 3)), "61bd7fef16a6de9d2be7361e9fcc9a0395db9fe2b7c8b5e4db18bfe6e1004e3e"),
    ("A3", ((1, 0), (2, 5), (3, 1)), "436e22ddc04b885c7678f3cf86993507c065714ac91e28f097f282feddee8e2d"),
]

# every simple of the D4 KR(2,3) decomposition in order, then the factors:
# perfbench's decompose reference
D4_KR_2_3_DECOMPOSITION = "dbc63b123c4cc3df4f1739427ca16f02e9ef99de0bbcdfef5531dea1bc9018ce"


def _digest(ch) -> str:
    return hashlib.sha256(dumps_qtc(ch).encode("ascii")).hexdigest()


def _engine(name: str) -> Engine:
    return Engine(build_lie_type(name[0], int(name[1:])))


@pytest.mark.parametrize("type_name, kind, node, digest", CHARACTERS)
def test_character_text_digest(type_name, kind, node, digest):
    eng = _engine(type_name)
    ch = eng.fundamental_char(node) if kind == "fund" else eng.kr_char_direct(node, 2)
    assert _digest(ch) == digest


@pytest.mark.parametrize("type_name, node, k, digest", DEEPER)
def test_deeper_string_text_digest(type_name, node, k, digest):
    assert _digest(_engine(type_name).kr_char_direct(node, k)) == digest


def test_d4_string_standard_and_simple_digests(subtraction_simples):
    eng = _engine("D4")
    poly = DrinfeldPoly.kr(2, 2, 0)
    assert _digest(eng.standard_char(poly)) == D4_P_2_02_STANDARD
    # the simple of a string root datum is its string character, and the
    # subtraction route gives it independently
    assert _digest(eng.simple_char(poly)) == D4_P_2_02_SIMPLE
    reference = subtraction_simples(eng, eng.kl_decompose(poly))[poly]
    assert _digest(reference) == D4_P_2_02_SIMPLE


@pytest.mark.parametrize("type_name, roots, digest", STANDARDS)
def test_standard_text_digest(type_name, roots, digest):
    assert _digest(_engine(type_name).standard_char(DrinfeldPoly(roots))) == digest


def test_d4_decomposition_digest():
    res = _engine("D4").kl_decompose(DrinfeldPoly.kr(2, 3, 0))
    h = hashlib.sha256()
    for q in res.order:
        h.update(dumps_qtc(res.simples[q]).encode("ascii"))
    for q, z in res.factors:
        h.update(f"factor {q} {z}\n".encode("ascii"))
    assert h.hexdigest() == D4_KR_2_3_DECOMPOSITION
