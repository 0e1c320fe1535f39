"""Hand-written CLI calls with hand-derived expected fields.

Each row is (argv, expected exit code, expected fields).  Expected fields are
top-level JSON keys compared for equality, plus three derived views:

* "ef":      sorted [e, f] over the branches of an `extensions` output;
             the certified sum e*f must also equal the degree, "deg".
* "sides":   [slope, length] for each side of a `polygon` output.
* "entries": sorted [key, multiplicity, proposed_value] of a `factor` output.

An exit code of 2 expects the error object of schemas/error.schema.json.
The derivations are short and sit next to each row.
"""

FPT2 = ["--base", "Fpt", "--p", "2"]
FPT3 = ["--base", "Fpt", "--p", "3"]

TABLE = (
    # -- over Q ---------------------------------------------------------------
    # x^2+2 under x:0: digits 2, 0, 1 valued 1, -, 0
    (["valuate", "--poly", "x^2+2"], 0, {"value": "0"}),
    # under x:1/2: min(v(2), 2 * 1/2) = 1
    (["valuate", "--chain", "x:1/2", "--poly", "x^2+2"], 0, {"value": "1"}),
    # x^4+4 = (x^2+2)^2 - 4 (x^2+2) + 8: min(2 * 3/2, 2 + 3/2, 3) = 3
    (["valuate", "--chain", "x:1/2; x^2+2:3/2", "--poly", "x^4+4"], 0, {"value": "3"}),
    (["expand", "--poly", "x^4+4", "--key", "x^2+2"], 0, {"digits": ["8", "-4", "1"]}),
    # points (0, 1), (2, 0)
    (["polygon", "--poly", "x^2+2"], 0, {"sides": [["-1/2", 2]]}),
    # f(x+1) = x^5+5x^4+10x^3+10x^2+55x+50 over Q_5: points (0,2), (1,1), ..., (5,0)
    (["polygon", "--p", "5", "--poly", "x^5+50*x-1", "--key", "x-1"], 0,
     {"sides": [["-1", 1], ["-1/4", 4]]}),
    (["augment", "--key", "x", "--alpha", "1/2"], 0,
     {"chain": "x:1/2", "ramification_index": 2, "inertia_degree": 1}),
    # y^2+1 is irreducible over F_3: a degree-2 key appended to x:0
    (["augment", "--p", "3", "--key", "x^2+1", "--alpha", "1"], 0,
     {"chain": "x:0; x^2+1:1", "ramification_index": 1, "inertia_degree": 2}),
    (["approach", "--poly", "x^2+2"], 0,
     {"value": "0", "in_vf": True, "already_maximal": False, "alpha1": "1/2"}),
    (["approach", "--chain", "x:1/2; x^2+2:inf", "--poly", "x^2+2"], 0,
     {"value": "inf", "in_vf": True, "already_maximal": True, "alpha1": None}),
    (["max-aug", "--poly", "x^2+2", "--key", "x"], 0, {"alpha1": "1/2"}),
    # x^2+1 = (x+2)^2 - 4 (x+2) + 5 over Q_5: first slope -1
    (["max-aug", "--p", "5", "--poly", "x^2+1", "--key", "x+2"], 0, {"alpha1": "1"}),
    # y^2+1 = (y+2)(y+3) over F_5, each key with proposed value 1 as above
    (["factor", "--p", "5", "--poly", "x^2+1"], 0,
     {"value": "0", "is_unit": False, "entries": [["x+2", 1, "1"], ["x+3", 1, "1"]]}),
    # -1 is a square mod 5, not mod 3; x^2+2 is Eisenstein at 2
    (["extensions", "--p", "5", "--poly", "x^2+1"], 0, {"ef": [[1, 1], [1, 1]], "deg": 2}),
    (["extensions", "--p", "3", "--poly", "x^2+1"], 0, {"ef": [[1, 2]], "deg": 2}),
    (["extensions", "--p", "2", "--poly", "x^2+2"], 0, {"ef": [[2, 1]], "deg": 2}),
    # sides of length 1 and 4 in x-1 (see the polygon row): a known wrong answer
    (["extensions", "--p", "5", "--poly", "x^5+50*x-1"], 0, {"ef": [[1, 1], [4, 1]], "deg": 5}),
    (["artin-schreier", "--a", "2"], 2, {}),
    (["extensions", "--p", "4", "--poly", "x^2+1"], 2, {}),
    (["valuate", "--poly", "x^2+"], 2, {}),
    # -- over F_p(t) ------------------------------------------------------------
    (["valuate", *FPT2, "--poly", "x^2+x+1/t"], 0, {"value": "-1"}),
    # min(v(t), 3 * 1/3) = 1
    (["valuate", *FPT3, "--chain", "x:1/3", "--poly", "x^3+t"], 0, {"value": "1"}),
    # x^2+t = (x+1)^2 + (t+1) in characteristic 2
    (["expand", *FPT2, "--poly", "x^2+t", "--key", "x+1"], 0, {"digits": ["t+1", "0", "1"]}),
    # points (0, -1), (1, 0), (2, 0): one side of slope 1/2
    (["polygon", *FPT2, "--poly", "x^2+x+1/t"], 0, {"sides": [["1/2", 2]]}),
    (["augment", *FPT3, "--key", "x", "--alpha", "1/3"], 0,
     {"chain": "x:1/3", "ramification_index": 3, "inertia_degree": 1}),
    # points (0, 1), (1, 0), (2, 0); y^2+y = y (y+1)
    (["approach", *FPT2, "--poly", "x^2+x+t"], 0,
     {"value": "0", "in_vf": True, "already_maximal": False, "alpha1": "1"}),
    # x^2+x+t = (x+1)^2 + (x+1) + t
    (["max-aug", *FPT2, "--poly", "x^2+x+t", "--key", "x+1"], 0, {"alpha1": "1"}),
    (["factor", *FPT2, "--poly", "x^2+x+t"], 0,
     {"value": "0", "is_unit": False, "entries": [["x", 1, "1"], ["x+1", 1, "1"]]}),
    # Artin-Schreier with a = 1/t: ramified; x^3 - x - t splits by Hensel
    (["extensions", *FPT2, "--poly", "x^2+x+1/t"], 0, {"ef": [[2, 1]], "deg": 2}),
    (["extensions", *FPT3, "--poly", "x^3+2*x+2*t"], 0,
     {"ef": [[1, 1], [1, 1], [1, 1]], "deg": 3}),
    # (x+t)^2 is not squarefree: a known wrong answer while it is certified
    (["extensions", *FPT2, "--poly", "x^2+t^2"], 2, {}),
    # 1/t^2 = (1/t)^2 - 1/t + 1/t: one step to w = -1
    (["artin-schreier", *FPT2, "--a", "1/t^2"], 0,
     {"case": "ramified-p", "e": 2, "w": "-1", "witness": "1/t", "max_of_s": ["-1/2", "1/t"]}),
    (["artin-schreier", *FPT3, "--a", "t"], 0,
     {"case": "split-p", "g": 3, "max_of_s": "unbounded"}),
    (["artin-schreier", *FPT3, "--a", "1"], 0, {"case": "inert-p", "f": 3, "w": "0"}),
    (["artin-schreier", "--base", "Fpt", "--p", "5", "--a", "1/t"], 0,
     {"case": "ramified-p", "e": 5, "w": "-1", "improvements": 0}),
)
