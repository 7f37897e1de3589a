"""Parser inputs shared by ``test_expr.py`` and ``scripts/parse_corpus.py``.

Plain data with no imports, so the script can read it under any
checkout of ``gaquot``.  Every case parses over the table ``W``.
"""

W = ("w0", "w1", "w2")

# (text, error position) pairs; positions are part of the contract
MALFORMED = [
    ("w0 + ", 5),
    ("(w0", 3),
    ("w0 ^^ 2", 4),
    ("w0 + $", 5),
    ("", 0),
    ("2 ** w0", 3),
    ("w0 w1", 3),
    ("w0 + q*w1", 5),
    ("3/0", 2),
    ("w0^(2)", 3),
    (")w0", 0),
    ("1..5", 1),
    ("w0^\u00b2", 3),  # a superscript two is a digit to ``str.isdigit`` but not to ``int``
    ("1 + w0^\u0663", 7),  # an Arabic-Indic three, which ``int`` would read as 3
    ("w0\u00b2", 2),  # identifiers are ASCII: the superscript is not part of the name
    ("x\u00b2 + 1", 1),
    ("w\u0663", 1),
    ("w0 + \u00e9", 5),
    ("w1 + \u212a", 5),  # the Kelvin sign, a letter to ``str.isalpha``
    ("w0^\uff12", 3),  # a fullwidth two, a digit to ``str.isdigit`` and to ``int``
]


def _sum(k: int, name: str) -> str:
    """``(name + name + ...)``: ``k`` terms, which a sum does not merge."""
    return "(" + " + ".join([name] * k) + ")"


# A term multiplies its factors left to right, and each product merges
# like terms before the next one.  That order decides which products pass
# the cap of 50000 term pairs, and what a refusal names and where.
# (label, text, the result as text)
LEFT_TO_RIGHT = [
    ("0*(250xw0)*(201xw1)", "0*" + _sum(250, "w0") + "*" + _sum(201, "w1"), "0"),
    ("w2*(250xw0)*(201xw1)", "w2*" + _sum(250, "w0") + "*" + _sum(201, "w1"), "50250*w0*w1*w2"),
    # a product of number and name factors that vanished leaves no term to count
    ("0*w1*(50001xw0)", "0*w1*" + _sum(50001, "w0"), "0"),
    ("0^1*(50001xw0)", "0^1*" + _sum(50001, "w0"), "0"),
]
# (label, text, error position, the pair count the refusal names)
LEFT_TO_RIGHT_REFUSED = [
    ("(250xw0)*(201xw1)*0", _sum(250, "w0") + "*" + _sum(201, "w1") + "*0", 1249, "250 by 201"),
    ("2*(50001xw0)", "2*" + _sum(50001, "w0"), 1, "1 by 50001"),
    ("(50001xw0)*2", _sum(50001, "w0") + "*2", 250004, "50001 by 1"),
    ("w2*(50001xw0)*w1", "w2*" + _sum(50001, "w0") + "*w1", 2, "1 by 50001"),
    # a lone zero literal is still one term
    ("0*(50001xw0)", "0*" + _sum(50001, "w0"), 1, "1 by 50001"),
]
