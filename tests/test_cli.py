from __future__ import annotations

import json

import pytest

from circuitsmith.cli import main


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
        assert payload["witness_cycle"]

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

    def test_compose_with_check(self, capsys, tmp_path):
        ident = self.make_identity(tmp_path)
        wrap = self.make_wrap(tmp_path)
        code, payload = run(capsys, ["compose", ident, wrap, "--check"])
        assert code == 0
        assert payload["laws"]["lower_inclusion"] and payload["laws"]["upper_inclusion"]

    def test_product_with_check(self, capsys, tmp_path):
        ident = self.make_identity(tmp_path)
        code, payload = run(capsys, ["product", ident, ident, "--check"])
        assert code == 0
        assert payload["laws"]["law_holds"]


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


class TestUnknownExitCode:
    def test_four_sphere_recognition_is_unknown(self, capsys, tmp_path):
        verts = list(range(6))
        faces = [verts[:i] + verts[i + 1 :] for i in range(6)]
        f = write(tmp_path, "s4.json", {"maximal": faces, "k": 4})
        code, payload = run(capsys, ["check-circuit", f, "--k", "4"])
        assert code == 2
        assert payload["unknown"]


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
