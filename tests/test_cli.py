from __future__ import annotations

import argparse
import gc
import importlib
import json
import weakref
from pathlib import Path

import pytest

from circuitsmith import serialize
from circuitsmith.cli import build_parser, main


def write(tmp_path, name, payload):
    p = tmp_path / name
    p.write_text(json.dumps(payload))
    return str(p)


@pytest.fixture
def sphere_file(tmp_path):
    return write(
        tmp_path,
        "sphere.json",
        {"maximal": [[0, 1, 2], [0, 1, 3], [0, 2, 3], [1, 2, 3]], "k": 2},
    )


@pytest.fixture
def disk_circuit_file(tmp_path):
    return write(
        tmp_path,
        "disk.json",
        {
            "complex": {"maximal": [[0, 1, 2]]},
            "boundary": [[0, 1], [1, 2], [0, 2]],
            "k": 2,
        },
    )


def run(capsys, argv):
    code = main(argv)
    out = capsys.readouterr().out
    return code, json.loads(out) if out.strip() else None


class TestCheckCircuit:
    def test_valid_sphere(self, capsys, sphere_file):
        code, payload = run(capsys, ["check-circuit", sphere_file, "--k", "2"])
        assert code == 0 and payload["valid"]

    def test_invalid_wedge_without_s(self, capsys, tmp_path):
        f = write(
            tmp_path,
            "wedge.json",
            {
                "maximal": [
                    [0, 1, 2], [0, 1, 3], [0, 2, 3], [1, 2, 3],
                    [3, 4, 5], [3, 4, 6], [3, 5, 6], [4, 5, 6],
                ],
                "k": 2,
            },
        )
        code, payload = run(capsys, ["check-circuit", f, "--k", "2"])
        assert code == 1 and not payload["valid"]
        witnesses = [
            w for c in payload["checks"] for w in c["witnesses"] if not c["passed"]
        ]
        assert [3] in witnesses

    def test_wedge_with_s_file(self, capsys, tmp_path):
        f = write(
            tmp_path,
            "wedge.json",
            {
                "maximal": [
                    [0, 1, 2], [0, 1, 3], [0, 2, 3], [1, 2, 3],
                    [3, 4, 5], [3, 4, 6], [3, 5, 6], [4, 5, 6],
                ],
            },
        )
        s = write(tmp_path, "s.json", [[3]])
        code, payload = run(capsys, ["check-circuit", f, "--k", "2", "--s", s])
        assert code == 0 and payload["valid"]


class TestSigma:
    def test_case_a(self, capsys, sphere_file):
        code, payload = run(capsys, ["sigma", "--case", "a", sphere_file])
        assert code == 0
        assert payload["simplices"] == [[0], [1], [2], [3]]
        assert payload["codim"] == 2

    def test_case_b(self, capsys, disk_circuit_file):
        code, payload = run(capsys, ["sigma", "--case", "b", disk_circuit_file])
        assert code == 0 and payload["simplices"] == []

    @pytest.mark.parametrize("case", ["a", "b"])
    def test_zero_circuit_has_empty_singular_set(self, capsys, tmp_path, case):
        points = write(tmp_path, "points.json", {"maximal": [[0], [1]], "k": 0})
        code, payload = run(capsys, ["sigma", "--case", case, points])
        assert code == 0
        assert payload["simplices"] == [] and payload["ambient_dim"] == 0

    def test_case_c_rejects_a_circuit(self, capsys, disk_circuit_file):
        # read as a bordism, the disk has dimension 2 where 3 is needed
        code, payload = run(capsys, ["sigma", "--case", "c", disk_circuit_file])
        assert code == 1 and not payload["valid"]
        assert payload["stage"] == "verify-nullbordism"
        assert [0, 1, 2] in payload["witnesses"]

    def test_case_a_rejects_a_boundary_as_input(self, capsys, tmp_path, disk_circuit_file):
        # the case is checked ahead of the axioms, which the second file fails
        impure = write(tmp_path, "impure.json", {"complex": {"maximal": [[0, 1, 2], [2, 3]]},
                                                 "boundary": [[0, 1], [1, 2], [0, 2]], "k": 2})
        for path in (disk_circuit_file, impure):
            code, payload = run(capsys, ["sigma", "--case", "a", path])
            assert code == 1 and not payload["valid"]
            assert payload["stage"] == "input" and "empty boundary" in payload["error"]

    @pytest.mark.parametrize("case", ["a", "b"])
    def test_cases_a_and_b_check_the_circuit(self, capsys, tmp_path, case):
        # two tetrahedron boundaries sharing vertex 3, with no singular candidate
        wedge = write(tmp_path, "wedge.json", {"maximal": [
            [0, 1, 2], [0, 1, 3], [0, 2, 3], [1, 2, 3],
            [3, 4, 5], [3, 4, 6], [3, 5, 6], [4, 5, 6],
        ], "k": 2})
        code, payload = run(capsys, ["sigma", "--case", case, wedge])
        assert code == 1 and not payload["valid"]
        assert payload["stage"] == "verify-circuit"
        assert [3] in payload["witnesses"]


class TestHomologyCommand:
    def test_absolute(self, capsys, tmp_path, sphere_file):
        code, payload = run(capsys, ["homology", sphere_file])
        assert code == 0
        assert payload["betti"] == [1, 0, 1]

    def test_relative(self, capsys, tmp_path):
        cx = write(tmp_path, "d2.json", {"maximal": [[0, 1, 2]]})
        rel = write(tmp_path, "bd.json", [[0, 1], [1, 2], [0, 2]])
        code, payload = run(capsys, ["homology", cx, "--rel", rel])
        assert code == 0
        assert payload["betti"] == [0, 0, 1]

    def test_torsion_reported(self, capsys, tmp_path):
        rp2 = write(
            tmp_path,
            "rp2.json",
            {
                "maximal": [
                    [0, 1, 4], [0, 1, 5], [0, 2, 3], [0, 2, 4], [0, 3, 5],
                    [1, 2, 3], [1, 2, 5], [1, 3, 4], [2, 4, 5], [3, 4, 5],
                ]
            },
        )
        code, payload = run(capsys, ["homology", rp2])
        assert code == 0
        assert payload["torsion"] == {"1": [2]}

    def test_dense_cell_guard(self, capsys, tmp_path, monkeypatch):
        # Betti numbers and coordinates both read the core the cycle reduces
        # to, one vertex and one edge; a dense limit below that core's one
        # cell refuses coordinates with an error, not a traceback.
        n = 7100
        edges = [[i, (i + 1) % n] for i in range(n)]
        cycle = write(tmp_path, "cycle.json", {"maximal": edges})
        code, payload = run(capsys, ["homology", cycle])
        assert code == 0 and payload["betti"] == [1, 1]
        circuit = write(tmp_path, "circuit.json", {"maximal": edges, "k": 1})
        target = write(tmp_path, "target.json", {"complex": {"maximal": edges}})
        identity = write(tmp_path, "map.json", {"vertex_map": {str(i): i for i in range(n)}})
        code, payload = run(capsys, ["evaluate", circuit, identity, target])
        assert code == 0 and payload["coordinates"]["free"] in ([1], [-1])
        monkeypatch.setattr(importlib.import_module("circuitsmith.homology"), "MAX_DENSE_CELLS", 0)
        code = main(["evaluate", circuit, identity, target])
        captured = capsys.readouterr()
        assert code == 1
        assert "column transform of degree 1 has shape 1 x 1" in json.loads(captured.out)["error"]
        assert "Traceback" not in captured.err


class TestHomologyLoader:
    """Malformed complexes exit 1 with a JSON error, never a traceback."""

    @staticmethod
    def assert_json_error(capsys, argv):
        code = main(argv)
        captured = capsys.readouterr()
        assert code == 1
        assert "error" in json.loads(captured.out)
        assert "Traceback" not in captured.err

    @pytest.mark.parametrize(
        "payload",
        [
            {"maximal": 5},
            {"maximal": [5]},
            {"maximal": [[0, 1], 2]},
            {"maximal": [[[0], 1]]},
            {"maximal": [[True, 2]]},
            {"maximal": [["0", 1]]},
            [[0, 1]],
        ],
        ids=["int", "list-of-int", "mixed", "nested", "bool", "string", "bare-list"],
    )
    def test_malformed_complex(self, capsys, tmp_path, payload):
        self.assert_json_error(capsys, ["homology", write(tmp_path, "bad.json", payload)])

    @pytest.mark.parametrize("rel", [5, [5], [[0, True]]], ids=["int", "list-of-int", "bool"])
    def test_malformed_relative_subcomplex(self, capsys, tmp_path, rel):
        cx = write(tmp_path, "d2.json", {"maximal": [[0, 1, 2]]})
        self.assert_json_error(capsys, ["homology", cx, "--rel", write(tmp_path, "rel.json", rel)])


class TestObjectLoaders:
    """A JSON file that should hold an object but holds anything else exits 1
    with a JSON error, never a traceback."""

    DISK = {"complex": {"maximal": [[0, 1, 2]]}, "boundary": [[0, 1], [1, 2], [0, 2]], "k": 2}
    TARGET = {"complex": {"maximal": [[0, 1, 2]]}, "subcomplex": [[0, 1], [1, 2], [0, 2]]}
    IDENT = {"vertex_map": {"0": 0, "1": 1, "2": 2}}
    BORDISM = {
        "complex": {"maximal": [[0, 1, 2, 3]]},
        "boundary": [[0, 1, 2], [0, 1, 3], [0, 2, 3], [1, 2, 3]],
        "circuit": [[0, 1, 2], [0, 1, 3], [0, 2, 3], [1, 2, 3]],
        "k": 2,
    }
    PUNCTURED = {"complex": {"maximal": [[0, 1]]}, "punctures": [[0]]}
    CMAP = {"domain": PUNCTURED, "target": PUNCTURED, "vertex_map": {"0": 0, "1": 1}}
    # (argv with file names, the file that gets the bad payload)
    CASES = {
        "check-circuit": (["check-circuit", "circuit"], "circuit"),
        "sigma-b": (["sigma", "--case", "b", "circuit"], "circuit"),
        "sigma-c": (["sigma", "--case", "c", "bordism"], "bordism"),
        "fundamental-class": (["fundamental-class", "circuit"], "circuit"),
        "psi-circuit": (["psi", "circuit", "map", "target"], "circuit"),
        "psi-map": (["psi", "circuit", "map", "target"], "map"),
        "psi-target": (["psi", "circuit", "map", "target"], "target"),
        "evaluate-map": (["evaluate", "circuit", "map", "target"], "map"),
        "check-bordism": (["check-bordism", "bordism", "bmap", "btarget"], "bordism"),
        "limit-set": (["limit-set", "cmap"], "cmap"),
        "glue": (["glue", "circuit", "circuit2", "--iso", "iso"], "circuit2"),
        "glue-iso": (["glue", "circuit", "circuit2", "--iso", "iso"], "iso"),
        "verify-cert": (["verify-cert", "cert"], "cert"),
    }

    def files(self, tmp_path, bad, payload):
        good = {
            "circuit": self.DISK,
            "circuit2": self.DISK,
            "target": self.TARGET,
            "map": self.IDENT,
            "bordism": self.BORDISM,
            "btarget": {"complex": {"maximal": [[0, 1, 2, 3]]}},
            "bmap": {"vertex_map": {str(v): v for v in range(4)}},
            "cmap": self.CMAP,
            "iso": {"interface_a": [], "interface_b": [], "vertex_map": {}},
            "cert": {"kind": "pseudocycle-certificate"},
            "complex": {"maximal": [[0, 1, 2]]},
            "rel": [[0, 1]],
        }
        good[bad] = payload
        return {name: write(tmp_path, f"{name}.json", p) for name, p in good.items()}

    @pytest.mark.parametrize("payload", [5, [[0, 1, 2]], "text", None],
                             ids=["int", "list", "string", "null"])
    @pytest.mark.parametrize("case", sorted(CASES))
    def test_non_object_payload(self, capsys, tmp_path, case, payload):
        argv, bad = self.CASES[case]
        paths = self.files(tmp_path, bad, payload)
        TestHomologyLoader.assert_json_error(capsys, [paths.get(a, a) for a in argv])

    UNREADABLE = {
        "psi": (["psi", "circuit", "map", "target"], "circuit"),
        "homology-rel": (["homology", "complex", "--rel", "rel"], "rel"),
        "verify-cert": (["verify-cert", "cert"], "cert"),
    }

    # A vertex id of 5 000 digits is past the length up to which Python
    # converts a string to an integer, so decoding the file raises.
    TEXTS = {"not-json": "{not json", "too-deep": "[" * 100_000, "huge-int": f"[[{'7' * 5000}]]"}

    @pytest.mark.parametrize("kind", ["missing", *TEXTS])
    @pytest.mark.parametrize("case", sorted(UNREADABLE))
    def test_unreadable_file(self, capsys, tmp_path, case, kind):
        argv, bad = self.UNREADABLE[case]
        paths = self.files(tmp_path, bad, None)
        if kind == "missing":
            (tmp_path / f"{bad}.json").unlink()
        else:
            (tmp_path / f"{bad}.json").write_text(self.TEXTS[kind])
        TestHomologyLoader.assert_json_error(capsys, [paths.get(a, a) for a in argv])

    WITH_OUT = {
        "psi": ["psi", "circuit", "map", "target"],
        "check-bordism": ["check-bordism", "bordism", "bmap", "btarget"],
        "glue": ["glue", "circuit", "circuit2", "--iso", "iso"],
    }

    @pytest.mark.parametrize("case", sorted(WITH_OUT))
    def test_unwritable_out(self, capsys, tmp_path, case):
        paths = self.files(tmp_path, "cert", None)
        argv = [paths.get(a, a) for a in self.WITH_OUT[case]]
        out = str(tmp_path / "missing" / "report.json")
        code = main(argv + ["--out", out])
        report = json.loads(capsys.readouterr().out)
        assert code == 1 and report["valid"] is False
        assert f"cannot write {out}" in report["error"]
        assert main(argv) == 0  # the inputs themselves are fine
        capsys.readouterr()

    @pytest.mark.parametrize(
        "name, payload",
        [
            ("map", {"vertex_map": 5}),
            ("map", {"vertex_map": {"0": "zero", "1": 1, "2": 2}}),
            ("cmap", {"target": PUNCTURED, "vertex_map": {"0": 0, "1": 1}}),
            ("cmap", {"domain": 5, "target": PUNCTURED, "vertex_map": {"0": 0, "1": 1}}),
            ("cert", {"kind": "pseudocycle-certificate", "circuit": DISK}),
            ("map", {"vertex_map": {"0": 0.5, "1": 1, "2": 2}}),
            ("map", {"vertex_map": {"0": 0, "1": True, "2": 2}}),
            ("circuit", {"maximal": [[0, 1, 2]], "k": "two"}),
            ("circuit", {"maximal": [[0, 1, 2]], "k": True}),
            ("bordism", {**BORDISM, "k": 2.0}),
            ("iso", {"interface_a": [], "interface_b": [], "vertex_map": 5}),
            ("iso", {"interface_a": [], "interface_b": [], "vertex_map": {"0": "x"}}),
        ],
        ids=["vertex-map-int", "vertex-map-string-value", "no-domain", "domain-int", "cert-fields",
             "vertex-map-float-value", "vertex-map-bool-value", "circuit-k-string",
             "circuit-k-bool", "bordism-k-float", "iso-map-int", "iso-map-string-value"],
    )
    def test_malformed_fields(self, capsys, tmp_path, name, payload):
        argv = {"map": ["psi", "circuit", "map", "target"], "cmap": ["limit-set", "cmap"],
                "cert": ["verify-cert", "cert"], "circuit": ["check-circuit", "circuit"],
                "bordism": ["check-bordism", "bordism", "bmap", "btarget"],
                "iso": ["glue", "circuit", "circuit2", "--iso", "iso"]}[name]
        paths = self.files(tmp_path, name, payload)
        TestHomologyLoader.assert_json_error(capsys, [paths.get(a, a) for a in argv])

    def test_orientation_not_an_object(self, capsys, tmp_path):
        paths = self.files(tmp_path, "cert", None)
        out = str(tmp_path / "cert.json")
        assert main(["psi", paths["circuit"], paths["map"], paths["target"], "--out", out]) == 0
        capsys.readouterr()
        cert = json.loads((tmp_path / "cert.json").read_text())
        cert["orientation"] = 5
        write(tmp_path, "cert.json", cert)
        TestHomologyLoader.assert_json_error(capsys, ["verify-cert", out])

    @pytest.mark.parametrize(
        "field, value",
        [
            ("signs", 5),
            ("signs", [[[0, 1, 2], "x"]]),
            ("signs", [[[0, 1, 2], 7]]),
            ("signs", [[[0, 1, 2]]]),
            ("signs", [[5, 1]]),
            ("witness_cycle", 5),
            ("witness_cycle", [["a"]]),
            ("orientable", "no"),
        ],
        ids=["signs-int", "sign-string", "sign-seven", "sign-missing", "signs-simplex-int", "cycle-int",
             "cycle-string-vertex", "orientable-string"],
    )
    def test_malformed_orientation(self, capsys, tmp_path, field, value):
        paths = self.files(tmp_path, "cert", None)
        out = str(tmp_path / "cert.json")
        assert main(["psi", paths["circuit"], paths["map"], paths["target"], "--out", out]) == 0
        capsys.readouterr()
        cert = json.loads((tmp_path / "cert.json").read_text())
        cert["orientation"][field] = value
        write(tmp_path, "cert.json", cert)
        TestHomologyLoader.assert_json_error(capsys, ["verify-cert", out])


class TestParserReuse:
    def test_parser_is_built_once(self):
        assert build_parser() is build_parser()

    def test_flags_do_not_carry_over(self):
        parser = build_parser()
        first = parser.parse_args(["psi", "c", "m", "t", "--out", "cert.json"])
        assert first.out == "cert.json"
        assert parser.parse_args(["psi", "c", "m", "t"]).out is None
        assert parser.parse_args(["check-circuit", "c", "--k", "3"]).k == 3
        later = parser.parse_args(["check-circuit", "c"])
        assert later.k is None and not hasattr(later, "out")

    def test_successive_main_calls(self, capsys, tmp_path, disk_circuit_file, sphere_file):
        target = write(tmp_path, "target.json", TestObjectLoaders.TARGET)
        ident = write(tmp_path, "ident.json", TestObjectLoaders.IDENT)
        out = tmp_path / "cert.json"
        code, _ = run(capsys, ["psi", disk_circuit_file, ident, target, "--out", str(out)])
        assert code == 0 and out.exists()
        out.unlink()
        code, _ = run(capsys, ["psi", disk_circuit_file, ident, target])
        assert code == 0 and not out.exists()
        code, payload = run(capsys, ["check-circuit", sphere_file, "--k", "3"])
        assert code == 1 and "error" in payload
        code, payload = run(capsys, ["check-circuit", sphere_file])
        assert code == 0 and payload["valid"]
        code, payload = run(capsys, ["sigma", "--case", "a", sphere_file])
        assert code == 0 and payload["case"] == "a"

    def test_no_complex_survives_psi(self, capsys, tmp_path, monkeypatch):
        refs = []
        plain = serialize.circuit_from_json

        def spy(payload, k=None):
            data = plain(payload, k=k)
            refs.append(weakref.ref(data.L))
            return data

        monkeypatch.setattr(serialize, "circuit_from_json", spy)
        # Vertex ids no other test uses, so that no equal complex is about.
        disk = {"maximal": [[70, 71, 72]]}
        edges = [[70, 71], [71, 72], [70, 72]]
        circuit = write(tmp_path, "disk.json", {"complex": disk, "boundary": edges, "k": 2})
        target = write(tmp_path, "target.json", {"complex": disk, "subcomplex": edges})
        ident = write(tmp_path, "ident.json", {"vertex_map": {str(v): v for v in (70, 71, 72)}})
        code, _ = run(capsys, ["psi", circuit, ident, target])
        assert code == 0
        gc.collect()
        assert refs and all(r() is None for r in refs)


class TestFundamentalAndEvaluate:
    def test_fundamental_class(self, capsys, sphere_file):
        code, payload = run(capsys, ["fundamental-class", sphere_file])
        assert code == 0 and payload["valid"]
        assert len(payload["fundamental_class"]["coefficients"]) == 4

    def test_non_orientable_reports_witness(self, capsys, tmp_path):
        rp2 = write(
            tmp_path,
            "rp2.json",
            {
                "maximal": [
                    [0, 1, 4], [0, 1, 5], [0, 2, 3], [0, 2, 4], [0, 3, 5],
                    [1, 2, 3], [1, 2, 5], [1, 3, 4], [2, 4, 5], [3, 4, 5],
                ],
                "k": 2,
            },
        )
        code, payload = run(capsys, ["fundamental-class", rp2])
        assert code == 1 and not payload["valid"]
        assert payload["stage"] == "orientation"
        assert payload["witnesses"] and all(len(w) == 3 for w in payload["witnesses"])

    def test_evaluate_degree_two(self, capsys, tmp_path):
        hexagon = write(
            tmp_path,
            "hex.json",
            {"maximal": [[0, 1], [1, 2], [2, 3], [3, 4], [4, 5], [0, 5]], "k": 1},
        )
        target = write(
            tmp_path, "circle.json", {"complex": {"maximal": [[0, 1], [1, 2], [0, 2]]}}
        )
        wrap = write(
            tmp_path,
            "wrap.json",
            {"vertex_map": {"0": 0, "1": 1, "2": 2, "3": 0, "4": 1, "5": 2}},
        )
        code, payload = run(capsys, ["evaluate", hexagon, wrap, target])
        assert code == 0
        assert [abs(c) for c in payload["coordinates"]["free"]] == [2]

    def test_evaluate_checks_the_circuit_first(self, capsys, tmp_path):
        # An edge hangs off the disk: the circuit is not pure, so evaluate
        # fails at stage verify-circuit with its witness, as
        # fundamental-class does, instead of printing coordinates.
        circuit = write(tmp_path, "impure.json", {
            "complex": {"maximal": [[0, 1, 2], [2, 3]]}, "boundary": [[0, 1], [1, 2], [0, 2]], "k": 2})
        target = write(tmp_path, "target.json", {
            "complex": {"maximal": [[0, 1, 2], [2, 3]]}, "subcomplex": [[0, 1], [1, 2], [0, 2]]})
        identity = write(tmp_path, "map.json", {"vertex_map": {str(i): i for i in range(4)}})
        for command in ("evaluate", "fundamental-class"):
            argv = [command, circuit, identity, target] if command == "evaluate" else [command, circuit]
            code, payload = run(capsys, argv)
            assert code == 1 and not payload["valid"]
            assert payload["stage"] == "verify-circuit"
            assert payload["witnesses"] == [[2, 3]]

    def test_evaluate_reports_a_non_orientable_circuit(self, capsys, tmp_path):
        rp2 = [[0, 1, 4], [0, 1, 5], [0, 2, 3], [0, 2, 4], [0, 3, 5],
               [1, 2, 3], [1, 2, 5], [1, 3, 4], [2, 4, 5], [3, 4, 5]]
        circuit = write(tmp_path, "rp2.json", {"maximal": rp2, "k": 2})
        target = write(tmp_path, "target.json", {"complex": {"maximal": rp2}})
        identity = write(tmp_path, "map.json", {"vertex_map": {str(i): i for i in range(6)}})
        code, payload = run(capsys, ["evaluate", circuit, identity, target])
        assert code == 1 and payload["valid"] is False and payload["stage"] == "orientation"
        assert payload["witnesses"] and all(len(w) == 3 for w in payload["witnesses"])

    def test_evaluate_reports_a_map_that_is_not_a_map_of_pairs(self, capsys, tmp_path, disk_circuit_file):
        # The disk's boundary must land in the subpair, which is empty here.
        target = write(tmp_path, "target.json", {"complex": {"maximal": [[0, 1, 2]]}})
        identity = write(tmp_path, "map.json", {"vertex_map": {"0": 0, "1": 1, "2": 2}})
        code, payload = run(capsys, ["evaluate", disk_circuit_file, identity, target])
        assert code == 1 and payload["valid"] is False and payload["stage"] == "evaluate"
        assert "not a map of pairs" in payload["error"] and payload["witnesses"] == []


class TestLimitCommands:
    def make_wrap(self, tmp_path):
        return write(
            tmp_path,
            "wrap.json",
            {
                "domain": {
                    "complex": {"maximal": [[0, 1], [1, 2], [2, 3], [3, 4]]},
                    "punctures": [[0], [4]],
                },
                "target": {
                    "complex": {"maximal": [[10, 11], [11, 12], [12, 13], [10, 13]]},
                    "punctures": [],
                },
                "vertex_map": {"0": 10, "1": 11, "2": 12, "3": 13, "4": 10},
            },
        )

    def make_identity(self, tmp_path):
        return write(
            tmp_path,
            "ident.json",
            {
                "domain": {
                    "complex": {"maximal": [[0, 1], [1, 2], [2, 3], [3, 4]]},
                    "punctures": [[0], [4]],
                },
                "target": {
                    "complex": {"maximal": [[0, 1], [1, 2], [2, 3], [3, 4]]},
                    "punctures": [[0], [4]],
                },
                "vertex_map": {"0": 0, "1": 1, "2": 2, "3": 3, "4": 4},
            },
        )

    def test_limit_set(self, capsys, tmp_path):
        code, payload = run(capsys, ["limit-set", self.make_wrap(tmp_path)])
        assert code == 0
        assert payload["carrier"]["simplices"] == [[10]]
        assert payload["limit_dimension"] == 0
        assert payload["proper"] is False

    def test_compose(self, capsys, tmp_path):
        ident = self.make_identity(tmp_path)
        wrap = self.make_wrap(tmp_path)
        code, payload = run(capsys, ["compose", ident, wrap])
        assert code == 0
        assert payload["map"]["domain"]["punctures"] == [[0], [4]]
        assert payload["map"]["vertex_map"] == {"0": 10, "1": 11, "2": 12, "3": 13, "4": 10}

    def test_product(self, capsys, tmp_path):
        ident = self.make_identity(tmp_path)
        code, payload = run(capsys, ["product", ident, ident])
        assert code == 0
        code, limit = run(capsys, ["limit-set", write(tmp_path, "square.json", payload["map"])])
        assert code == 0 and limit["proper"]


class TestPsiPipeline:
    def test_psi_and_verify_cert_roundtrip(self, capsys, tmp_path, disk_circuit_file):
        target = write(
            tmp_path,
            "target.json",
            {
                "complex": {"maximal": [[0, 1, 2]]},
                "subcomplex": [[0, 1], [1, 2], [0, 2]],
            },
        )
        ident = write(
            tmp_path, "ident.json", {"vertex_map": {"0": 0, "1": 1, "2": 2}}
        )
        out = str(tmp_path / "cert.json")
        code, payload = run(
            capsys, ["psi", disk_circuit_file, ident, target, "--out", out]
        )
        assert code == 0 and payload["valid"]
        code2, payload2 = run(capsys, ["verify-cert", out])
        assert code2 == 0 and payload2["reproduced"]

    def test_psi_on_a_point(self, capsys, tmp_path):
        point = write(tmp_path, "point.json", {"complex": {"maximal": [[0]]}, "k": 0})
        target = write(tmp_path, "target.json", {"complex": {"maximal": [[0]]}})
        ident = write(tmp_path, "ident.json", {"vertex_map": {"0": 0}})
        out = str(tmp_path / "cert.json")
        code, payload = run(capsys, ["psi", point, ident, target, "--out", out])
        assert code == 0 and payload["valid"]
        assert payload["homology_coordinates"]["free"] == [1]
        code2, payload2 = run(capsys, ["verify-cert", out])
        assert code2 == 0 and payload2["reproduced"]

    def test_psi_invalid_circuit_exits_one(self, capsys, tmp_path):
        wedge = write(
            tmp_path,
            "wedge.json",
            {
                "maximal": [
                    [0, 1, 2], [0, 1, 3], [0, 2, 3], [1, 2, 3],
                    [3, 4, 5], [3, 4, 6], [3, 5, 6], [4, 5, 6],
                ],
                "k": 2,
            },
        )
        target = write(
            tmp_path,
            "target.json",
            {"complex": {"maximal": [
                [0, 1, 2], [0, 1, 3], [0, 2, 3], [1, 2, 3],
                [3, 4, 5], [3, 4, 6], [3, 5, 6], [4, 5, 6],
            ]}},
        )
        ident = write(
            tmp_path,
            "ident.json",
            {"vertex_map": {str(v): v for v in range(7)}},
        )
        code, payload = run(capsys, ["psi", wedge, ident, target])
        assert code == 1
        assert payload["stage"] == "verify-circuit"

    def test_check_bordism(self, capsys, tmp_path):
        bordism = write(
            tmp_path,
            "bordism.json",
            {
                "complex": {"maximal": [[0, 1, 2, 3]]},
                "boundary": [[0, 1, 2], [0, 1, 3], [0, 2, 3], [1, 2, 3]],
                "circuit": [[0, 1, 2], [0, 1, 3], [0, 2, 3], [1, 2, 3]],
                "circuit_boundary": [],
                "singular": [],
                "k": 2,
            },
        )
        target = write(tmp_path, "target.json", {"complex": {"maximal": [[0, 1, 2, 3]]}})
        ident = write(
            tmp_path, "ident.json", {"vertex_map": {"0": 0, "1": 1, "2": 2, "3": 3}}
        )
        out = str(tmp_path / "bcert.json")
        code, payload = run(capsys, ["check-bordism", bordism, ident, target, "--out", out])
        assert code == 0 and payload["valid"]
        code2, payload2 = run(capsys, ["verify-cert", out])
        assert code2 == 0 and payload2["reproduced"]


class TestDualComplexCommand:
    def test_bound_reported(self, capsys, tmp_path, sphere_file):
        code, payload = run(capsys, ["dual-complex", sphere_file, "--r", "0"])
        assert code == 0
        assert payload["dim"] <= payload["bound"]


class TestGlueCommand:
    def test_glue_two_arcs(self, capsys, tmp_path):
        left = write(
            tmp_path,
            "left.json",
            {"complex": {"maximal": [[0, 1], [1, 2]]}, "boundary": [[0], [2]], "k": 1},
        )
        right = write(
            tmp_path,
            "right.json",
            {"complex": {"maximal": [[10, 11], [11, 12]]}, "boundary": [[10], [12]], "k": 1},
        )
        iso = write(
            tmp_path,
            "iso.json",
            {"interface_a": [[2]], "interface_b": [[10]], "vertex_map": {"2": 10}},
        )
        code, payload = run(capsys, ["glue", left, right, "--iso", iso])
        assert code == 0 and payload["verdict"]["valid"]
        assert payload["circuit"]["k"] == 1


class TestUsageErrors:
    """A command line argparse rejects exits 1 with a JSON error, not with
    argparse's 2, which means Unknown."""

    @pytest.mark.parametrize(
        "argv, message",
        [
            (["psi"], "required"),
            (["homology", "x.json", "--bogus"], "unrecognized arguments: --bogus"),
            (["check-circuit", "x.json", "--k", "two"], "invalid int value"),
            (["compose", "a.json", "b.json", "--check"], "unrecognized arguments: --check"),
            (["product", "a.json", "b.json", "--check"], "unrecognized arguments: --check"),
        ],
        ids=["missing-positional", "unknown-flag", "bad-int", "compose-check", "product-check"],
    )
    def test_usage_error_is_malformed_input(self, capsys, argv, message):
        code = main(argv)
        captured = capsys.readouterr()
        assert code == 1
        assert message in json.loads(captured.out)["error"]
        assert "usage:" not in captured.err


def _readme_cli_block():
    """Each subcommand of the README's CLI block, with the options its line shows."""
    text = (Path(__file__).resolve().parent.parent / "README.md").read_text()
    block = text.split("## CLI", 1)[1].split("```sh\n", 1)[1].split("```", 1)[0]
    lines = [line.split() for line in block.splitlines() if line.strip()]
    assert all(words[0] == "circuitsmith" for words in lines)
    commands = {words[1]: {w.strip("[]") for w in words if w.lstrip("[").startswith("--")} for words in lines}
    assert len(commands) == len(lines), "a subcommand appears on two lines"
    return commands


def test_readme_cli_block_matches_the_parser():
    subparsers = next(
        a for a in build_parser()._actions if isinstance(a, argparse._SubParsersAction)
    )
    parsed = {
        name: {o for a in p._actions for o in a.option_strings if o.startswith("--") and o != "--help"}
        for name, p in subparsers.choices.items()
    }
    assert _readme_cli_block() == parsed


class TestUnknownExitCode:
    @pytest.fixture
    def four_sphere(self, tmp_path):
        verts = list(range(6))
        faces = [verts[:i] + verts[i + 1 :] for i in range(6)]
        return write(tmp_path, "s4.json", {"maximal": faces, "k": 4})

    def test_four_sphere_recognition_is_unknown(self, capsys, four_sphere):
        code, payload = run(capsys, ["check-circuit", four_sphere, "--k", "4"])
        assert code == 2
        assert payload["unknown"]
        # the first undecided simplex is vertex 0, whose link is a 3-sphere
        unknown = [c for c in payload["checks"] if c["unknown"]]
        assert [c["witnesses"] for c in unknown] == [[[0]]]
        assert unknown[0]["detail"].endswith("Unknown at a link of dimension 3")

    def test_every_stage_prefix_names_the_undecided_simplex(self, capsys, tmp_path, four_sphere):
        target = write(tmp_path, "target.json", {"complex": {"maximal": [[0, 1, 2, 3, 4, 5]]}})
        identity = write(tmp_path, "map.json", {"vertex_map": {str(i): i for i in range(6)}})
        for argv in (["psi", four_sphere, identity, target],
                     ["evaluate", four_sphere, identity, target],
                     ["fundamental-class", four_sphere],
                     ["sigma", "--case", "a", four_sphere]):
            code, payload = run(capsys, argv)
            assert code == 2, argv
            assert payload["stage"] == "verify-circuit" and payload["witnesses"] == [[0]]


class TestInstanceCap:
    def test_cap_is_enforced(self, capsys, tmp_path, sphere_file, monkeypatch):
        monkeypatch.setenv("CIRCUITSMITH_MAX_SIMPLICES", "3")
        code, payload = run(capsys, ["check-circuit", sphere_file, "--k", "2"])
        assert code == 1
        assert "cap" in payload["error"]

    def test_cap_default_allows_fixtures(self, capsys, sphere_file, monkeypatch):
        monkeypatch.delenv("CIRCUITSMITH_MAX_SIMPLICES", raising=False)
        code, _ = run(capsys, ["check-circuit", sphere_file, "--k", "2"])
        assert code == 0
