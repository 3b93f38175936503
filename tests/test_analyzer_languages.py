"""Tests for the language-aware leakage heuristics."""

from __future__ import annotations

import pytest

from repro.core.analyzer.languages import extract_functions, scan_file
from repro.core.analyzer.source import ProjectFile
from repro.core.corpus.templates import go_chaincode, java_chaincode, js_chaincode


def _file(path: str, content: str) -> ProjectFile:
    return ProjectFile(path=path, content=content)


def read_leaks(file: ProjectFile) -> list[str]:
    return scan_file(file)["read_leak"]


def write_leaks(file: ProjectFile) -> list[str]:
    return scan_file(file)["write_leak"]


def transient_bypass(file: ProjectFile) -> list[str]:
    return scan_file(file)["transient_bypass"]


class TestFunctionExtraction:
    def test_go_functions(self):
        file = _file("cc.go", go_chaincode("col", True, True))
        names = {f.name for f in extract_functions(file)}
        assert "readPrivateAsset" in names and "setPrivate" in names

    def test_js_functions(self):
        file = _file("cc.js", js_chaincode("col", True, True))
        names = {f.name for f in extract_functions(file)}
        assert "readPrivateAsset" in names
        assert "if" not in names  # keywords never treated as functions

    def test_java_functions(self):
        file = _file("CC.java", java_chaincode("col", True, True))
        names = {f.name for f in extract_functions(file)}
        assert "readPrivateAsset" in names and "setPrivateAsset" in names

    def test_unknown_extension_skipped(self):
        assert extract_functions(_file("cc.py", "def f(): pass")) == []

    def test_braces_in_strings_handled(self):
        code = 'func weird(a string) (string, error) {\n\ts := "{{{"\n\treturn s, nil\n}\n'
        functions = extract_functions(_file("x.go", code))
        assert len(functions) == 1 and '"{{{"' in functions[0].body


class TestGoLeaks:
    def test_leaky_read_detected(self):
        file = _file("cc.go", go_chaincode("col", read_leak=True, write_leak=False))
        assert read_leaks(file) == ["readPrivateAsset"]

    def test_safe_read_not_flagged(self):
        file = _file("cc.go", go_chaincode("col", read_leak=False, write_leak=False))
        assert read_leaks(file) == []

    def test_leaky_write_detected(self):
        file = _file("cc.go", go_chaincode("col", read_leak=False, write_leak=True))
        assert write_leaks(file) == ["setPrivate"]

    def test_safe_write_not_flagged(self):
        file = _file("cc.go", go_chaincode("col", read_leak=False, write_leak=False))
        assert write_leaks(file) == []

    def test_listing2_verbatim(self):
        """The exact Listing 2 of the paper must be flagged."""
        code = """package main
func setPrivate(stub shim.ChaincodeStubInterface, args []string) (string, error) {
\tif len(args) != 2 {
\t\treturn "", fmt.Errorf("Incorrect arguments. Expecting a key and a value")
\t}
\terr := stub.PutPrivateData("demo", args[0], []byte(args[1]))
\tif err != nil {
\t\treturn "", fmt.Errorf("Failed to set asset: %s", args[0])
\t}
\treturn args[1], nil
}
"""
        assert write_leaks(_file("sacc.go", code)) == ["setPrivate"]

    def test_returning_key_not_value_not_flagged(self):
        """Echoing the KEY (args[0]) is not a value leak."""
        code = """package main
func setPrivate(stub shim.ChaincodeStubInterface, args []string) (string, error) {
\terr := stub.PutPrivateData("demo", args[0], []byte(args[1]))
\tif err != nil {
\t\treturn "", err
\t}
\treturn args[0], nil
}
"""
        assert write_leaks(_file("cc.go", code)) == []

    def test_shim_success_leak_detected(self):
        code = """package main
func read(stub shim.ChaincodeStubInterface, args []string) peer.Response {
\tasset, err := stub.GetPrivateData("demo", args[0])
\tif err != nil {
\t\treturn shim.Error(err.Error())
\t}
\treturn shim.Success(asset)
}
"""
        assert read_leaks(_file("cc.go", code)) == ["read"]

    def test_hash_api_never_flagged(self):
        code = """package main
func readHash(stub shim.ChaincodeStubInterface, args []string) (string, error) {
\tdigest, err := stub.GetPrivateDataHash("demo", args[0])
\tif err != nil {
\t\treturn "", err
\t}
\treturn hex.EncodeToString(digest), nil
}
"""
        assert read_leaks(_file("cc.go", code)) == []


class TestJsLeaks:
    def test_leaky_read_detected(self):
        file = _file("cc.js", js_chaincode("col", read_leak=True, write_leak=False))
        assert read_leaks(file) == ["readPrivateAsset"]

    def test_safe_read_not_flagged(self):
        file = _file("cc.js", js_chaincode("col", read_leak=False, write_leak=False))
        assert read_leaks(file) == []

    def test_leaky_write_detected(self):
        file = _file("cc.js", js_chaincode("col", read_leak=False, write_leak=True))
        assert write_leaks(file) == ["setPrivateAsset"]

    def test_safe_write_not_flagged(self):
        file = _file("cc.js", js_chaincode("col", read_leak=False, write_leak=False))
        assert write_leaks(file) == []

    def test_listing1_verbatim(self):
        """The exact Listing 1 (fabricPerfTest) must be flagged."""
        code = """
class C {
    async readPrivatePerfTest(ctx, perfTestId) {
        const exists = await this.privatePerfTestExists(ctx, perfTestId);
        if (!exists) {
            throw new Error(`The perf test ${perfTestId} does not exist`);
        }
        const buffer = await ctx.stub.getPrivateData(collection, perfTestId);
        const asset = JSON.parse(buffer.toString());
        return asset;
    }
}
"""
        assert read_leaks(_file("cc.js", code)) == ["readPrivatePerfTest"]

    def test_typescript_extension(self):
        file = _file("cc.ts", js_chaincode("col", read_leak=True, write_leak=False))
        assert read_leaks(file) == ["readPrivateAsset"]


class TestJavaLeaks:
    def test_leaky_read_detected(self):
        file = _file("CC.java", java_chaincode("col", read_leak=True, write_leak=False))
        assert read_leaks(file) == ["readPrivateAsset"]

    def test_safe_read_not_flagged(self):
        file = _file("CC.java", java_chaincode("col", read_leak=False, write_leak=False))
        assert read_leaks(file) == []

    def test_leaky_write_detected(self):
        file = _file("CC.java", java_chaincode("col", read_leak=False, write_leak=True))
        assert write_leaks(file) == ["setPrivateAsset"]

    def test_safe_write_not_flagged(self):
        file = _file("CC.java", java_chaincode("col", read_leak=False, write_leak=False))
        assert write_leaks(file) == []


class TestTaintEdgeCases:
    def test_error_message_mentioning_variable_not_a_leak(self):
        code = """package main
func check(stub shim.ChaincodeStubInterface, args []string) (string, error) {
\tasset, err := stub.GetPrivateData("demo", args[0])
\tif err != nil || asset == nil {
\t\treturn "", fmt.Errorf("asset missing")
\t}
\treturn "found", nil
}
"""
        assert read_leaks(_file("cc.go", code)) == []

    def test_discarded_result_not_a_leak(self):
        code = """package main
func touch(stub shim.ChaincodeStubInterface, args []string) (string, error) {
\t_, err := stub.GetPrivateData("demo", args[0])
\tif err != nil {
\t\treturn "", err
\t}
\treturn "ok", nil
}
"""
        assert read_leaks(_file("cc.go", code)) == []

    def test_transitive_taint_detected(self):
        code = """
class C {
    async chained(ctx, id) {
        const raw = await ctx.stub.getPrivateData('demo', id);
        const parsed = JSON.parse(raw.toString());
        const summary = { value: parsed };
        return summary;
    }
}
"""
        assert read_leaks(_file("cc.js", code)) == ["chained"]


class TestTransientBypass:
    """The `value via plaintext args` bad-practice detector."""

    def test_go_args_value_flagged(self):
        file = _file("cc.go", go_chaincode("col", read_leak=False, write_leak=True))
        assert transient_bypass(file) == ["setPrivate"]

    def test_non_echoing_args_write_still_flagged(self):
        """Even without echoing the value back, passing it via args puts
        it into every committed transaction."""
        file = _file("cc.go", go_chaincode("col", read_leak=False, write_leak=False))
        assert transient_bypass(file) == ["setPrivateAsset"]

    def test_transient_pattern_not_flagged(self):
        file = _file("cc.js", js_chaincode("col", read_leak=False, write_leak=False))
        assert transient_bypass(file) == []

    def test_java_transient_pattern_not_flagged(self):
        file = _file("CC.java", java_chaincode("col", read_leak=False, write_leak=False))
        assert transient_bypass(file) == []

    @pytest.mark.parametrize(
        "body, flagged",
        [
            # Reading the transient map is no proof the written value
            # came from it: this value still travels in the plaintext args.
            (
                "\ttransMap, err := stub.GetTransient()\n"
                "\tif err != nil || transMap == nil {\n\t\treturn \"\", err\n\t}\n"
                "\terr = stub.PutPrivateData(\"col\", args[0], []byte(args[1]))\n",
                ["setPrivate"],
            ),
            # An args value reaches the write through an assignment.
            (
                "\tvalue := args[1]\n"
                "\terr := stub.PutPrivateData(\"col\", args[0], []byte(value))\n",
                ["setPrivate"],
            ),
            # Only the written value counts: a key from args is public anyway.
            (
                "\tkey := args[0]\n"
                "\ttransMap, _ := stub.GetTransient()\n"
                "\terr := stub.PutPrivateData(\"col\", key, transMap[\"asset\"])\n",
                [],
            ),
        ],
    )
    def test_go_private_write_value_taint(self, body, flagged):
        code = (
            "package main\n"
            "func setPrivate(stub shim.ChaincodeStubInterface, args []string) (string, error) {\n"
            + body
            + "\treturn \"ok\", err\n}\n"
        )
        assert transient_bypass(_file("cc.go", code)) == flagged
