import json
import os
import subprocess
import sys
from pathlib import Path

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

import linkrep.cli
import linkrep.conditions
from linkrep.cli import _element_json, _render, _Rendered, main
from linkrep.field import format_scalar
from linkrep.rotation import (
    icosahedral_group,
    octahedral_group,
    preset_group,
    rotation_to_perm,
)

FIXTURES = Path(__file__).resolve().parent.parent / "fixtures"
REF1 = str(FIXTURES / "ref1.sld")
COMMUTING = str(FIXTURES / "commuting.sld")
TESTS = Path(__file__).resolve().parent
GOLDEN = TESTS / "golden"
# argv and printed report of one cached search
COMMUTING_SEARCH = ("search", COMMUTING, "--group", "octahedral", "--dedup", "so3_canonical")
COMMUTING_STDOUT = (GOLDEN / "search-commuting-octahedral-so3_canonical.stdout").read_text(encoding="utf-8")


def run(capsys, *argv):
    code = main(list(argv))
    captured = capsys.readouterr()
    out = json.loads(captured.out) if captured.out.strip() else None
    err = json.loads(captured.err) if captured.err.strip() else None
    return code, out, err


def assert_no_floats(obj):
    if isinstance(obj, float):
        raise AssertionError(f"float leaked into report: {obj!r}")
    if isinstance(obj, dict):
        for v in obj.values():
            assert_no_floats(v)
    elif isinstance(obj, list):
        for v in obj:
            assert_no_floats(v)


class TestCheck:
    def test_ref1_passes(self, capsys):
        code, out, err = run(capsys, "check", REF1)
        assert code == 0
        assert err is None
        assert out["wellformed"] is True
        assert out["b1"] == 1 and out["b2"] == 4
        assert all(out["checks"][k]["passed"] for k in ("genus0", "selfint", "relators", "sw"))
        assert out["obstructions"]["verdict"] is True
        assert_no_floats(out)

    def test_failing_decoration_exits_one(self, capsys, tmp_path):
        bad = tmp_path / "bad.sld"
        text = Path(REF1).read_text().replace('decorate Y = perm "(24)"', 'decorate Y = perm "(123)"')
        bad.write_text(text)
        code, out, err = run(capsys, "check", str(bad))
        assert code == 1
        assert not out["checks"]["relators"]["passed"]

    def test_parse_error_exits_two(self, capsys, tmp_path):
        f = tmp_path / "broken.sld"
        f.write_text("circle c\nnonsense\n")
        code, out, err = run(capsys, "check", str(f))
        assert code == 2
        assert "unknown keyword" in err["error"]
        assert "line 2" in err["error"]

    def test_missing_file_exits_two(self, capsys):
        code, out, err = run(capsys, "check", "/no/such/file.sld")
        assert code == 2

    def test_undecorated_file_exits_two(self, capsys, tmp_path):
        f = tmp_path / "bare.sld"
        f.write_text("circle c\n")
        code, out, err = run(capsys, "check", str(f))
        assert code == 2
        assert "decorated" in err["error"]

    def test_partial_decoration_exits_two(self, capsys, tmp_path):
        f = tmp_path / "partial.sld"
        f.write_text('circle c\ncircle d\ndecorate c = perm "(12)"\n')
        code, out, err = run(capsys, "check", str(f))
        assert code == 2
        assert "undecorated" in err["error"]

    def test_malformed_diagram_exits_two(self, capsys, tmp_path):
        f = tmp_path / "collide.sld"
        f.write_text(
            'circle c\narc a from c slot 0 to c slot 0 word\ndecorate c = perm "()"\n'
        )
        code, out, err = run(capsys, "check", str(f))
        assert code == 2
        assert out["wellformed"] is False

    def test_circle_named_like_a_hopf_member_exits_two(self, capsys, tmp_path):
        f = tmp_path / "clash.sld"
        f.write_text(Path(COMMUTING).read_text() + 'circle H.a\ndecorate H.a = perm "()"\n')
        code, out, err = run(capsys, "check", str(f))
        assert code == 2
        assert out["wellformed"] is False
        assert out["diagnostics"] == ["circle id 'H.a' is a Hopf member id"]

    def test_all_sw_paths_flag(self, capsys):
        code, out, err = run(capsys, "check", REF1, "--all-sw-paths")
        assert code == 0

    def test_all_sw_paths_reports_unexamined_paths(self, capsys, tmp_path, monkeypatch):
        # a second arc between H's members: two simple paths, limit one
        monkeypatch.setattr(linkrep.conditions, "SIMPLE_PATH_LIMIT", 1)
        f = tmp_path / "two_paths.sld"
        f.write_text(
            Path(COMMUTING).read_text() + "arc A3 from H.a slot 1 to H.b slot 1 word C:+\n"
        )
        code, out, err = run(capsys, "check", str(f), "--all-sw-paths")
        assert code == 0
        assert out["checks"]["sw"]["diagnostics"] == [
            "hopf H: only the first 1 simple paths were examined"
        ]
        code, out, err = run(capsys, "check", str(f))
        assert out["checks"]["sw"]["diagnostics"] == []

    def test_second_decoration_exits_two(self, capsys, tmp_path):
        f = tmp_path / "twice.sld"
        f.write_text(Path(COMMUTING).read_text() + 'decorate H = perm "(34)"\n')
        code, out, err = run(capsys, "check", str(f))
        assert code == 2
        assert "line 9" in err["error"] and "decorated twice" in err["error"]

    def test_undeclared_decoration_exits_two(self, capsys, tmp_path):
        f = tmp_path / "undeclared.sld"
        f.write_text(Path(COMMUTING).read_text() + 'decorate ZZ = perm "(34)"\n')
        code, out, err = run(capsys, "check", str(f))
        assert code == 2
        assert "line 9" in err["error"] and "undeclared" in err["error"]


class TestSearch:
    def test_commuting_fixture(self, capsys):
        code, out, err = run(capsys, "search", COMMUTING)
        assert code == 0
        assert out["search"]["raw_solutions"] == 30
        assert out["search"]["classes"] >= 1
        assert_no_floats(out)

    def test_empty_result_exits_one(self, capsys, tmp_path):
        f = tmp_path / "lonely_hopf.sld"
        f.write_text("hopf h\n")
        code, out, err = run(capsys, "search", str(f))
        assert code == 1
        assert out["search"]["raw_solutions"] == 0

    @pytest.mark.parametrize("text, solutions", [("hopf h\n", []), ("", [{}])])
    def test_empty_lists_and_decorations_print_as_json_dumps(self, capsys, tmp_path, text, solutions):
        f = tmp_path / "small.sld"
        f.write_text(text)
        main(["search", str(f)])
        printed = capsys.readouterr().out
        report = json.loads(printed)
        assert report["search"]["solutions"] == solutions
        assert printed == json.dumps(report, indent=2) + "\n"

    def test_group_override_tetrahedral(self, capsys):
        # the tetrahedral preset has only the three coordinate flips as
        # involutions; the commuting fixture still admits solutions
        code, out, err = run(capsys, "search", COMMUTING, "--group", "tetrahedral")
        assert out["search"]["raw_solutions"] > 0

    def test_dedup_none_counts_mappings(self, capsys):
        code, out, err = run(capsys, "search", COMMUTING, "--dedup", "none")
        assert out["search"]["classes"] == out["search"]["raw_solutions"]

    def test_cache_round_trip(self, capsys, tmp_path):
        cache = tmp_path / "cache"
        code1, out1, _ = run(capsys, "search", COMMUTING, "--cache", str(cache))
        assert code1 == 0
        files = list(cache.glob("*.json"))
        assert len(files) == 1
        code2, out2, _ = run(capsys, "search", COMMUTING, "--cache", str(cache))
        assert code2 == 0
        assert out1 == out2

    def test_cache_distinguishes_options(self, capsys, tmp_path):
        cache = tmp_path / "cache"
        run(capsys, "search", COMMUTING, "--cache", str(cache))
        run(capsys, "search", COMMUTING, "--cache", str(cache), "--dedup", "none")
        assert len(list(cache.glob("*.json"))) == 2

    def test_corrupt_cache_entry_is_a_miss_and_rewritten(self, capsys, tmp_path):
        cache = tmp_path / "cache"
        _, fresh, _ = run(capsys, "search", COMMUTING, "--cache", str(cache))
        (entry,) = cache.glob("*.json")
        # the fourth entry parses but holds a float, which no report may hold;
        # the rest are JSON but not a search report
        search = fresh["search"]
        not_reports = (
            {**fresh, "x": None},
            {**fresh, "search": {k: v for k, v in search.items() if k != "classes"}},
            {**fresh, "search": {**search, "raw_solutions": search["raw_solutions"] + 1}},
            {**fresh, "search": {**search, "raw_solutions": True, "solutions": search["solutions"][:1]}},
            {**fresh, "search": {**search, "solutions": dict(enumerate(search["solutions"]))}},
        )
        junks = (
            "{not json",
            '{"search": null}',
            "",
            '{"search": {"raw_solutions": 1}, "x": 0.5}',
            '{"search": {"raw_solutions": 1}}',
            '{"search": {"raw_solutions": true}}',
            *map(json.dumps, not_reports),
        )
        for junk in junks:
            entry.write_text(junk)
            code, out, err = run(capsys, "search", COMMUTING, "--cache", str(cache))
            assert code == 0 and err is None
            assert out == fresh
            assert json.loads(entry.read_text()) == fresh

    def test_cache_miss_and_hit_print_the_golden_bytes(self, capsys, tmp_path):
        cache = tmp_path / "cache"
        for _ in range(2):  # a miss, then a hit
            assert main([*COMMUTING_SEARCH, "--cache", str(cache)]) == 0
            assert capsys.readouterr().out == COMMUTING_STDOUT
            (entry,) = cache.glob("*.json")
            assert entry.read_text(encoding="utf-8") == COMMUTING_STDOUT

    def test_compact_cache_entry_prints_the_golden_bytes(self, capsys, tmp_path):
        # entries used to be written as json.dumps(report)
        cache = tmp_path / "cache"
        main([*COMMUTING_SEARCH, "--cache", str(cache)])
        capsys.readouterr()
        (entry,) = cache.glob("*.json")
        entry.write_text(json.dumps(json.loads(COMMUTING_STDOUT)), encoding="utf-8")
        assert main([*COMMUTING_SEARCH, "--cache", str(cache)]) == 0
        assert capsys.readouterr().out == COMMUTING_STDOUT

    def test_rewritten_corrupt_entry_prints_the_golden_bytes(self, capsys, tmp_path):
        cache = tmp_path / "cache"
        main([*COMMUTING_SEARCH, "--cache", str(cache)])
        capsys.readouterr()
        (entry,) = cache.glob("*.json")
        entry.write_text("{not json")
        for _ in range(2):  # the rewrite, then a hit of the rewritten entry
            assert main([*COMMUTING_SEARCH, "--cache", str(cache)]) == 0
            assert capsys.readouterr().out == COMMUTING_STDOUT
            assert entry.read_text(encoding="utf-8") == COMMUTING_STDOUT

    def test_cache_hit_builds_no_group(self, capsys, tmp_path, monkeypatch):
        cache = tmp_path / "cache"
        main([*COMMUTING_SEARCH, "--cache", str(cache)])
        capsys.readouterr()

        def no_group(name):
            raise AssertionError(f"a cache hit built group {name!r}")

        monkeypatch.setattr(linkrep.cli, "preset_group", no_group)
        assert main([*COMMUTING_SEARCH, "--cache", str(cache)]) == 0
        assert capsys.readouterr().out == COMMUTING_STDOUT

    def test_cache_on_a_regular_file_exits_two(self, capsys, tmp_path):
        not_a_dir = tmp_path / "cache"
        not_a_dir.write_text("")
        code, out, err = run(capsys, "search", COMMUTING, "--cache", str(not_a_dir))
        assert code == 2
        assert out is None
        assert "cannot use cache directory" in err["error"]

    def test_unwritable_cache_entry_exits_two(self, capsys, tmp_path):
        cache = tmp_path / "cache"
        run(capsys, "search", COMMUTING, "--cache", str(cache))
        (entry,) = cache.glob("*.json")
        entry.unlink()
        entry.mkdir()  # a miss that no rename can replace
        code, out, err = run(capsys, "search", COMMUTING, "--cache", str(cache))
        assert code == 2
        assert out is None
        assert "cannot write cache entry" in err["error"]
        assert [p.name for p in cache.iterdir()] == [entry.name]

    def test_cache_writes_by_atomic_rename(self, capsys, tmp_path, monkeypatch):
        cache = tmp_path / "cache"
        renames = []
        real_replace = linkrep.cli.os.replace

        def replace(src, dst):
            renames.append((Path(src).parent, Path(dst)))
            real_replace(src, dst)

        monkeypatch.setattr(linkrep.cli.os, "replace", replace)
        run(capsys, "search", COMMUTING, "--cache", str(cache))
        (entry,) = cache.glob("*.json")
        assert renames == [(cache, entry)]
        assert [p.name for p in cache.iterdir()] == [entry.name]

    def test_cache_key_includes_the_package_version(self, capsys, tmp_path, monkeypatch):
        cache = tmp_path / "cache"
        run(capsys, "search", COMMUTING, "--cache", str(cache))
        monkeypatch.setattr(linkrep.cli, "__version__", "0.0.0-other")
        run(capsys, "search", COMMUTING, "--cache", str(cache))
        assert len(list(cache.glob("*.json"))) == 2

    def test_cache_key_includes_the_source_digest(self, capsys, tmp_path, monkeypatch):
        # an entry written by other sources is a miss: the second run writes
        # a second entry, with the same bytes
        cache = tmp_path / "cache"
        assert main([*COMMUTING_SEARCH, "--cache", str(cache)]) == 0
        monkeypatch.setattr(linkrep.cli, "_source_digest", lambda: "0" * 64)
        assert main([*COMMUTING_SEARCH, "--cache", str(cache)]) == 0
        assert capsys.readouterr().out == COMMUTING_STDOUT * 2
        entries = sorted(cache.glob("*.json"))
        assert len(entries) == 2
        assert [e.read_text(encoding="utf-8") for e in entries] == [COMMUTING_STDOUT] * 2

    def test_all_sw_paths_is_not_a_search_option(self, capsys):
        # the search reads only the sw verdict, which the flag cannot change
        with pytest.raises(SystemExit) as exc:
            main(["search", COMMUTING, "--all-sw-paths"])
        assert exc.value.code == 2

    def test_each_printed_element_is_formatted_once(self, capsys, monkeypatch):
        import linkrep.rotation

        calls = []
        original = linkrep.rotation._output_form
        monkeypatch.setattr(
            linkrep.rotation, "_output_form", lambda g: calls.append(g) or original(g)
        )
        icosahedral_group.cache_clear()  # a group that has formatted nothing
        try:
            for _ in range(2):  # the second search formats no element again
                code, out, _ = run(capsys, "search", COMMUTING, "--group", "icosahedral")
                assert code == 0
        finally:
            icosahedral_group.cache_clear()
        printed = {json.dumps(e) for sol in out["search"]["solutions"] for e in sol.values()}
        assert len(calls) == len(set(calls)) == len(printed) < 60

    def test_solutions_reported_as_perm_or_matrix(self, capsys):
        code, out, err = run(capsys, "search", COMMUTING)
        for sol in out["search"]["solutions"]:
            for node, element in sol.items():
                assert "perm" in element or "matrix" in element


class TestElementJson:
    @staticmethod
    def uncached(g):
        perm = rotation_to_perm(g)
        if perm is not None:
            return {"perm": perm.cycle_str()}
        return {"matrix": [format_scalar(e) for row in g.m.rows for e in row]}

    def test_cached_form_equals_the_computation(self):
        for name in ("tetrahedral", "octahedral", "icosahedral"):
            group = preset_group(name)
            for g in group:
                assert _element_json(group, g) == self.uncached(g)

    def test_callers_get_fresh_objects(self):
        ico = icosahedral_group()
        g = next(g for g in ico if rotation_to_perm(g) is None)
        first = _element_json(ico, g)
        want = self.uncached(g)
        assert first == want
        first["matrix"][0] = "junk"
        first["extra"] = 1
        assert _element_json(ico, g) == want
        oct_ = octahedral_group()
        h = oct_.elements[5]
        _element_json(oct_, h)["perm"] = "junk"
        assert _element_json(oct_, h) == self.uncached(h)


# JSON values as the json module reads them back, with strings that need
# escaping: non-ASCII, control characters, quotes and backslashes
json_values = st.recursive(
    st.none()
    | st.booleans()
    | st.integers()
    | st.integers(min_value=-(10**40), max_value=10**40)
    | st.text(st.sampled_from('"\\/\x00\x1f\x7f\n\té€\u2028😀a') | st.characters()),
    lambda children: st.lists(children, max_size=4)
    | st.dictionaries(st.text(max_size=4), children, max_size=4),
    max_leaves=20,
)


class TestRender:
    @settings(max_examples=300, deadline=None)
    @given(json_values)
    def test_equals_json_dumps_with_indent_two(self, value):
        assert _render(value) == json.dumps(value, indent=2)

    def test_empty_containers(self):
        for value in ([], {}, [[]], {"": {}}, [{}, []]):
            assert _render(value) == json.dumps(value, indent=2)

    # the edges of the one-join path for lists of exact ints or exact strs:
    # bools mixed with ints, non-ASCII strings, empty and one-item lists
    @settings(max_examples=300, deadline=None)
    @given(
        st.one_of(
            st.lists(st.integers() | st.booleans(), max_size=6),
            st.lists(st.text(st.sampled_from('é€\u2028😀"\\a\n')), max_size=6),
            st.lists(st.integers() | st.text(max_size=3), max_size=1),
            st.lists(st.integers() | st.text(max_size=3) | st.none(), max_size=6),
        ),
        st.integers(0, 3),
    )
    def test_flat_lists_equal_json_dumps(self, value, depth):
        for _ in range(depth):
            value = {"k": [value]}
        assert _render(value) == json.dumps(value, indent=2)

    @settings(max_examples=200, deadline=None)
    @given(
        st.lists(
            st.text(max_size=4).map(lambda v: (False, v))
            | json_values.map(lambda v: (True, v)),
            max_size=6,
        )
    )
    def test_rendered_items_among_strings(self, items):
        # an item is a str, or any value rendered beforehand at the
        # indentation of a top-level list item
        value = [_Rendered(_render(v, "\n  ")) if pre else v for pre, v in items]
        assert _render(value) == json.dumps([v for _, v in items], indent=2)

    def test_bools_and_rendered_text_take_the_item_path(self):
        for value in ([True, 1, False], [1, True], [_Rendered("[]"), "[]"], [_Rendered("7")]):
            expected = json.dumps(
                [json.loads(v) if type(v) is _Rendered else v for v in value], indent=2
            )
            assert _render(value) == expected

    @pytest.mark.parametrize("value", [0.5, [1, 2.0], {"energy": float("nan")}])
    def test_floats_raise_type_error(self, value):
        with pytest.raises(TypeError):
            _render(value)


class TestParserReuse:
    """main builds its parser once per process; no call sees another's
    arguments."""

    def test_parser_is_built_once(self, capsys, monkeypatch):
        run(capsys, "obstruct", "--b2", "4")
        builds = []
        build = linkrep.cli.build_parser
        monkeypatch.setattr(linkrep.cli, "build_parser", lambda: builds.append(1) or build())
        run(capsys, "obstruct", "--b2", "4")
        run(capsys, "check", REF1)
        assert builds == []

    def test_group_option_does_not_leak(self, capsys):
        _, octahedral, _ = run(capsys, "search", COMMUTING, "--group", "octahedral")
        _, icosahedral, _ = run(capsys, "search", COMMUTING, "--group", "icosahedral")
        assert icosahedral != octahedral
        _, default, _ = run(capsys, "search", COMMUTING)  # the document's group
        assert default == octahedral

    def test_all_sw_paths_does_not_leak(self, capsys, tmp_path, monkeypatch):
        monkeypatch.setattr(linkrep.conditions, "SIMPLE_PATH_LIMIT", 1)
        f = tmp_path / "two_paths.sld"
        f.write_text(
            Path(COMMUTING).read_text() + "arc A3 from H.a slot 1 to H.b slot 1 word C:+\n"
        )
        for _ in range(2):
            _, out, _ = run(capsys, "check", str(f), "--all-sw-paths")
            assert out["checks"]["sw"]["diagnostics"]
            _, out, _ = run(capsys, "check", str(f))
            assert out["checks"]["sw"]["diagnostics"] == []


class TestObstruct:
    def test_b2_four_passes(self, capsys):
        code, out, err = run(capsys, "obstruct", "--b2", "4")
        assert code == 0
        assert out["b2"]["psq"] == 0
        assert out["verdict"] == "pass"

    def test_b2_one_fails(self, capsys):
        code, out, err = run(capsys, "obstruct", "--b2", "1")
        assert code == 1
        assert out["b2"]["psq"] == 3

    def test_summands_fail(self, capsys):
        code, out, err = run(capsys, "obstruct", "--summands", "1,1,1,1")
        assert code == 1
        assert out["connected_sum"]["psq"] == 3
        assert all(
            not v["passed"] for v in out["connected_sum"]["summand_verdicts"]
        )

    def test_summands_pass(self, capsys):
        code, out, err = run(capsys, "obstruct", "--summands", "4,8,0")
        assert code == 0

    def test_no_arguments_exits_two(self, capsys):
        code, out, err = run(capsys, "obstruct")
        assert code == 2

    def test_bad_b2_exits_two(self, capsys):
        code, out, err = run(capsys, "obstruct", "--b2", "0")
        assert code == 2


class TestBundle:
    def test_flat_profile(self, capsys):
        code, out, err = run(capsys, "bundle", "--b1", "1", "--b2", "4", "--c2", "-1")
        assert code == 0
        assert out["p1"] == 0
        assert out["energy"] == "0"
        assert out["flat"] and out["compact"] and out["irreducible_locked"]
        assert out["d"] == 0
        assert_no_floats(out)

    def test_fractional_energy_is_a_string(self, capsys):
        code, out, err = run(capsys, "bundle", "--b1", "1", "--b2", "3", "--c2", "0")
        assert out["energy"] == "3/4"
        assert_no_floats(out)

    def test_invalid_b2_exits_two(self, capsys):
        code, out, err = run(capsys, "bundle", "--b1", "1", "--b2", "0", "--c2", "0")
        assert code == 2


class TestEncoding:
    @pytest.mark.parametrize("command", ["check", "search", "canon"])
    @pytest.mark.parametrize("newline", [b"\n", b"\r\n"])
    def test_non_utf8_file_exits_two_naming_its_line(self, capsys, tmp_path, command, newline):
        # a Latin-1 comment on line 7 of REF-1
        data = Path(REF1).read_bytes().replace(b"\ncircle Y\n", b"\n# caf\xe9\ncircle Y\n")
        f = tmp_path / "latin1.sld"
        f.write_bytes(data.replace(b"\n", newline))
        code, out, err = run(capsys, command, str(f))
        assert (code, out, err) == (2, None, {"error": "line 7: not valid UTF-8"})

    @pytest.mark.parametrize(
        "tail, line", [(b"\xff", 1), (b"circle c\n\xe2\x82", 2), (b"\r\rcircle \xc3(", 3)]
    )
    def test_line_of_the_first_bad_byte(self, capsys, tmp_path, tail, line):
        f = tmp_path / "bad.sld"
        f.write_bytes(tail)
        code, out, err = run(capsys, "check", str(f))
        assert (code, out, err) == (2, None, {"error": f"line {line}: not valid UTF-8"})


    # str.splitlines also breaks at these; an .sld line ends only at
    # "\n", "\r\n" or "\r", so a comment may hold them
    OTHER_BREAKS = ["\x0b", "\x0c", "\x1c", "\x1d", "\x1e", "\x85", "\u2028", "\u2029"]

    @pytest.mark.parametrize("char", OTHER_BREAKS)
    def test_only_newlines_end_a_line(self, capsys, tmp_path, char):
        f = tmp_path / "comment.sld"
        f.write_bytes(f"# a{char}b\nnonsense\n".encode("utf-8"))
        code, out, err = run(capsys, "check", str(f))
        assert (code, out, err) == (2, None, {"error": "line 2: unknown keyword 'nonsense'"})

    @pytest.mark.parametrize("char", OTHER_BREAKS)
    def test_line_of_a_bad_byte_after_such_a_comment(self, capsys, tmp_path, char):
        f = tmp_path / "bad.sld"
        f.write_bytes(f"# a{char}b\ncircle c\n".encode("utf-8") + b"circle \xff\n")
        code, out, err = run(capsys, "check", str(f))
        assert (code, out, err) == (2, None, {"error": "line 3: not valid UTF-8"})


class TestComments:
    @pytest.mark.parametrize(
        "statement",
        [
            "group octahedral  # tetrahedral | octahedral | icosahedral",
            "circle Z  # a simple circle node",
            "hopf G  # a Hopf pair",
            "arc A from H.a slot 0 to H.b slot 0 word Y:+  # a band",
            'decorate Y = perm "(12)"  # S4 cycles',
            "decorate Y = matrix -1 0 0 0 0 -1 0 -1 0  # nine scalars",
        ],
    )
    def test_a_comment_after_a_statement_is_rejected(self, capsys, tmp_path, statement):
        # "#" starts a comment only as a line's first token
        f = tmp_path / "trailing.sld"
        f.write_text(f"# a comment line\nhopf H\ncircle Y\n{statement}\n")
        code, out, err = run(capsys, "check", str(f))
        assert (code, out) == (2, None)
        assert err["error"].startswith("line 4: ")


class TestCanon:
    @pytest.mark.parametrize("command", ["check", "search", "canon"])
    @pytest.mark.parametrize(
        "name, message",
        [
            ("matrix_not_orthogonal", "line 6: matrix is not orthogonal"),
            ("matrix_det", "line 7: matrix has determinant != 1"),
        ],
    )
    def test_rejected_matrix_exits_two_naming_its_line(self, capsys, command, name, message):
        code, out, err = run(capsys, command, str(TESTS / f"{name}.sld"))
        assert (code, out, err) == (2, None, {"error": message})

    def test_ref1_key(self, capsys):
        code, out, err = run(capsys, "canon", REF1)
        assert code == 0
        assert out["hopf_order"] == ["TL", "TR", "BL", "BR"]
        assert out["size"] == 4
        assert sorted(out["cos_squared"]) == ["0", "0", "1/4", "1/4", "1/4", "1/4"]
        assert_no_floats(out)

    def test_undecorated_exits_two(self, capsys, tmp_path):
        f = tmp_path / "bare.sld"
        f.write_text("hopf h\n")
        code, out, err = run(capsys, "canon", str(f))
        assert code == 2

    def test_key_invariant_under_conjugated_decoration(self, capsys, tmp_path):
        base_code, base_out, _ = run(capsys, "canon", REF1)
        # conjugate every decoration by (123): relabel cycles through t -> s t s^-1
        text = Path(REF1).read_text()
        for old, new in [
            ('"(12)"', '"(23)"'),
            ('"(14)"', '"(24)"'),
            ('"(34)"', '"(14)"'),
            ('"(23)"', '"(13)"'),
            ('"(24)"', '"(34)"'),
        ]:
            text = text.replace(f"= perm {old}", f"= perm @{new}")
        text = text.replace("@", "")
        f = tmp_path / "conj.sld"
        f.write_text(text)
        code, out, _ = run(capsys, "canon", str(f))
        assert code == 0
        assert out == base_out


class TestColdImport:
    def test_cli_imports_no_dataclass_machinery(self):
        # a fresh process pays for every module the CLI imports; dataclasses
        # would bring inspect (and dis, ast, tokenize) with it
        env = dict(os.environ, PYTHONPATH=str(TESTS.parent / "src"))
        done = subprocess.run(
            [
                sys.executable,
                "-c",
                "import linkrep.cli, sys; "
                "print(*sorted({'dataclasses', 'inspect'} & set(sys.modules)))",
            ],
            env=env,
            capture_output=True,
            text=True,
            check=True,
        )
        assert done.stdout.split() == []

    def test_no_call_loads_openssl(self, tmp_path):
        # hashlib brings OpenSSL's libcrypto, a few MB of resident memory; a
        # cache key uses the interpreter's own SHA-256 module instead
        script = f"""
import contextlib, io, json, sys
import linkrep.cli
def sha():
    return {{m for m in sys.modules if m.startswith("_sha") or m in ("hashlib", "_hashlib")}}
before = sha()
for argv in ({["check", REF1]!r}, {["canon", REF1]!r}, {list(COMMUTING_SEARCH)!r}):
    with contextlib.redirect_stdout(io.StringIO()):
        linkrep.cli.main(argv)
print(json.dumps(sorted(sha() - before)))
for _ in range(2):  # a miss, then a hit
    out = io.StringIO()
    with contextlib.redirect_stdout(out):
        linkrep.cli.main({[*COMMUTING_SEARCH, "--cache", str(tmp_path / "cache")]!r})
    print(json.dumps(sorted({{"hashlib", "_hashlib"}} & set(sys.modules))))
print(out.getvalue(), end="")
"""
        env = dict(os.environ, PYTHONPATH=str(TESTS.parent / "src"))
        done = subprocess.run(
            [sys.executable, "-c", script], env=env, capture_output=True, text=True, check=True
        )
        uncached, miss, hit, report = done.stdout.split("\n", 3)
        assert json.loads(uncached) == json.loads(miss) == json.loads(hit) == []
        assert report == COMMUTING_STDOUT

    @pytest.mark.parametrize("blocked", [(), ("_sha2", "_sha256")], ids=["builtin", "hashlib"])
    def test_cache_key_is_the_sha256_of_the_payload(self, tmp_path, blocked):
        # the entry name is hashlib's hex digest of the key's payload, read
        # from the interpreter's own module or, when that is missing, from
        # hashlib itself
        script = f"""
import contextlib, io, json, sys
from pathlib import Path
for name in {blocked!r}:
    sys.modules[name] = None
import linkrep.cli
from linkrep.cli import __version__, _load_document, serialize
cache = Path({str(tmp_path / "cache")!r})
with contextlib.redirect_stdout(io.StringIO()):
    linkrep.cli.main({[*COMMUTING_SEARCH, "--cache", str(tmp_path / "cache")]!r})
print(json.dumps("hashlib" in sys.modules))
(entry,) = cache.glob("*.json")
import hashlib
sources = hashlib.sha256()
for path in sorted(Path(linkrep.cli.__file__).parent.glob("*.py")):
    sources.update(path.name.encode("utf-8") + b"\\0" + path.read_bytes())
payload = serialize(_load_document({COMMUTING!r}))
payload += json.dumps({{"group": "octahedral", "dedup": "so3_canonical"}}, sort_keys=True)
payload += __version__ + sources.hexdigest()
print(json.dumps([entry.name, hashlib.sha256(payload.encode("utf-8")).hexdigest() + ".json"]))
"""
        env = dict(os.environ, PYTHONPATH=str(TESTS.parent / "src"))
        done = subprocess.run(
            [sys.executable, "-c", script], env=env, capture_output=True, text=True, check=True
        )
        loaded, names = done.stdout.splitlines()
        assert json.loads(loaded) is bool(blocked)
        name, want = json.loads(names)
        assert name == want
