"""Unit tests for the command-line interface."""

import os
import re
import subprocess
import sys

import pytest

from repro.cli import build_parser, main


class TestParser:
    def test_requires_command(self):
        with pytest.raises(SystemExit):
            build_parser().parse_args([])

    def test_scale_choices(self):
        with pytest.raises(SystemExit):
            build_parser().parse_args(["--scale", "huge", "stats"])

    def test_defaults(self):
        args = build_parser().parse_args(["stats"])
        assert args.scale == "tiny"
        assert args.seed == 42


class TestCommands:
    def test_stats(self, capsys):
        assert main(["stats"]) == 0
        out = capsys.readouterr().out
        assert "triples" in out
        assert "cache predicates" in out

    def test_complete_found(self, capsys):
        assert main(["complete", "spou"]) == 0
        out = capsys.readouterr().out
        assert "spouse" in out

    def test_complete_not_found(self, capsys):
        assert main(["complete", "zzzzqqq"]) == 1

    def test_query_with_answers(self, capsys):
        code = main([
            "query", "--no-suggest",
            'SELECT ?w WHERE { ?t foaf:name "Tom Hanks"@en . ?t dbo:spouse ?w }',
        ])
        assert code == 0
        assert "Rita Wilson" in capsys.readouterr().out

    def test_query_ask_prints_the_boolean(self, capsys):
        assert main(["query", "ASK { ?s ?p ?o }"]) == 0
        assert capsys.readouterr().out == "true\n"
        assert main(["query", "--format", "json", "ASK { ?s ?p ?o }"]) == 0
        assert '"boolean": true' in capsys.readouterr().out
        # false reads like a SELECT without rows: printed, exit code 1
        assert main(["query", "--no-suggest",
                     'ASK { ?s foaf:surname "Kennedys"@en }']) == 1
        assert capsys.readouterr().out == "false\n"

    @pytest.mark.parametrize("command,code", [("query", 1), ("suggest", 0)])
    def test_false_ask_gets_suggestions(self, command, code, capsys):
        """The QSM probes an ASK as the SELECT of its WHERE: a false one
        is repaired like a SELECT without rows, not a traceback."""
        assert main([command, 'ASK { ?s foaf:surname "Kennedys"@en }']) == code
        out = capsys.readouterr().out
        assert out.startswith("false\n")
        assert 'did you mean "Kennedy"@en instead of "Kennedys"@en?' in out

    def test_query_with_suggestions(self, capsys):
        code = main([
            "query",
            'SELECT ?p WHERE { ?p foaf:surname "Kennedys"@en }',
        ])
        assert code == 1  # no answers
        out = capsys.readouterr().out
        assert "QSM suggestions" in out
        assert "Kennedy" in out

    @pytest.mark.parametrize("command", ["query", "explain", "suggest"])
    def test_a_refused_query_is_an_error_line_not_a_traceback(self, command, capsys):
        code = main([command, "SELECT * WHERE { ?s ?p ?o FILTER(strlen() > 2) }"])
        assert code == 1
        assert capsys.readouterr().err.startswith("error: STRLEN takes 1 argument, got 0")

    @pytest.mark.parametrize("argv,code,patterns", [
        pytest.param(
            ["query", "SELECT * WHERE { ?s ?p ?o FILTER(strlen(?o) > 2) } LIMIT 3"], 0,
            [r"\A3 answers\n"], id="arity-twin"),
        pytest.param(
            ["query", "--format", "csv",
             "SELECT DISTINCT (STRLEN(?n) AS ?l) WHERE { ?s foaf:surname ?n } LIMIT 3"], 0,
            [r"\Al\r?\n(?:\d+\r?\n){3}\Z"], id="select-tail"),
        pytest.param(
            ["suggest", 'SELECT ?w WHERE { ?t foaf:name "Tom Hanks"@en . ?t dbo:spuse ?w }'], 0,
            [re.escape("did you mean <http://dbpedia.org/ontology/spouse> instead of "
                       "<http://dbpedia.org/ontology/spuse>?")], id="predicate-scan"),
        pytest.param(
            ["query", "--analyze",
             'SELECT ?p WHERE { ?p dbo:deathPlace ?c . ?p foaf:surname "Kennedy"@en }'], 1,
            [re.escape(f"did you mean <http://dbpedia.org/ontology/{name}> instead of "
                       "<http://dbpedia.org/ontology/deathPlace>?") for name in ("deathDate", "birthPlace")]
            + [r"^  qsm-terms .*proven_empty=[1-9]\d*, probes_skipped=[1-9]",
               r"^    qsm-alternatives .*vocabulary_hits=2\b"], id="predicate-table"),
        pytest.param(
            ["explain", "--probes",
             'SELECT ?p WHERE { ?p dbo:deathPlace ?c . ?p foaf:surname "Kennedy"@en }'], 0,
            [r"^-- probe: triple \d+ [a-z]+ \(\d+ of \d+ candidates proven empty\)$",
             r"^not shipped$"], id="probe-proof"),
        pytest.param(
            ["explain", "--analyze", 'SELECT ?w WHERE { ?t foaf:name "Tom Hanks"@en . ?t dbo:spouse ?w }'], 0,
            [r"^-- endpoint: .*^BindJoin\(.*^-- analyze$.*^  remote:\S+ .*kind=single-source"
             r"[^\n]*\n(?:    .*\n)*?    BindJoin\(.*rows=1,"], id="explain-analyze"),
    ])
    def test_output_form(self, argv, code, patterns, capsys):
        """What each command prints, read the way a user reads it: the
        exit code and the lines of stdout."""
        assert main(argv) == code
        out = capsys.readouterr().out
        for pattern in patterns:
            assert re.search(pattern, out, re.MULTILINE | re.DOTALL), (pattern, out)

    def test_init_saves_cache(self, tmp_path, capsys):
        path = tmp_path / "cache.sqlite"
        assert main(["init", "--save", str(path)]) == 0
        assert path.exists()
        # Where the time went, beside the query and timeout counts.
        stages = next(line for line in capsys.readouterr().out.splitlines()
                      if line.startswith("stages: "))
        assert [part.split()[0] for part in stages[len("stages: "):].split(", ")] == [
            "predicates", "hierarchy", "probes", "literals", "significance", "index",
            "qsm-vocabulary"]
        from repro.core import load_cache

        restored = load_cache(path)
        try:
            assert restored.n_predicates > 0
        finally:
            restored.close()

    def test_cache_info_refuses_other_files(self, tmp_path, capsys):
        path = tmp_path / "cache.json"
        path.write_text('{"version": 1}')
        assert main(["cache-info", str(path)]) == 1
        err = capsys.readouterr().err
        assert "not a SQLite database" in err
        assert "repro init --save" in err

    def test_cache_info_opens_the_file_in_another_process(self, tmp_path, capsys):
        """The cache file is self-contained: a process that never saw
        the initialized server opens it and reports its counters."""
        path = tmp_path / "cache.sqlite"
        assert main(["init", "--save", str(path)]) == 0
        counters = next(line[len("cache: "):] for line in capsys.readouterr().out.splitlines()
                        if line.startswith("cache: "))
        env = dict(os.environ, PYTHONPATH=os.pathsep.join(sys.path))
        done = subprocess.run([sys.executable, "-m", "repro.cli", "cache-info", str(path)],
                              capture_output=True, text=True, timeout=120, env=env)
        assert done.returncode == 0, done.stderr
        assert re.search(r"^load:\s+tiered in ", done.stdout, re.MULTILINE)
        assert re.search(rf"^stats:\s+{re.escape(counters)}$", done.stdout, re.MULTILINE)

    def test_study_small(self, capsys):
        assert main(["study", "--participants", "2"]) == 0
        out = capsys.readouterr().out
        assert "Figure 8" in out
        assert "QSM usage" in out

    def test_query_format_json(self, capsys):
        code = main([
            "query", "--format", "json",
            'SELECT ?w WHERE { ?t foaf:name "Tom Hanks"@en . ?t dbo:spouse ?w }',
        ])
        assert code == 0
        import json

        document = json.loads(capsys.readouterr().out)
        assert document["head"]["vars"] == ["w"]
        values = [b["w"]["value"] for b in document["results"]["bindings"]]
        assert any("Rita_Wilson" in value for value in values)

    def test_query_format_csv_and_tsv(self, capsys):
        query = 'SELECT ?w WHERE { ?t foaf:name "Tom Hanks"@en . ?t dbo:spouse ?w }'
        assert main(["query", "--format", "csv", query]) == 0
        csv_out = capsys.readouterr().out
        assert csv_out.splitlines()[0] == "w"
        assert "Rita_Wilson" in csv_out
        assert main(["query", "--format", "tsv", query]) == 0
        assert "Rita_Wilson" in capsys.readouterr().out

    def test_query_format_xml(self, capsys):
        assert main([
            "query", "--format", "xml",
            'SELECT ?w WHERE { ?t foaf:name "Tom Hanks"@en . ?t dbo:spouse ?w }',
        ]) == 0
        out = capsys.readouterr().out
        assert out.startswith("<?xml") and "Rita_Wilson" in out

    def test_machine_format_suppresses_suggestions(self, capsys):
        code = main([
            "query", "--format", "json",
            'SELECT ?p WHERE { ?p foaf:surname "Kennedys"@en }',
        ])
        assert code == 1  # no answers
        import json

        document = json.loads(capsys.readouterr().out)
        assert document["results"]["bindings"] == []

    def test_query_union_values_minus(self, capsys):
        code = main([
            "query", "--no-suggest", "--format", "csv",
            "SELECT DISTINCT ?p WHERE { { ?t dbo:spouse ?p } UNION "
            '{ ?p foaf:name "Tom Hanks"@en } MINUS { ?p a dbo:City } }',
        ])
        assert code == 0
        assert "Tom_Hanks" in capsys.readouterr().out

    def test_serve_smoke(self, capsys):
        """One process serves through the same smoke as a pool: a probe
        through the pooled client, /stats, then a timed drain."""
        assert main(["serve", "--port", "0", "--smoke"]) == 0
        out = capsys.readouterr().out
        assert "/sparql" in out
        assert "/stats" in out
        assert "smoke: probe ok" in out
        assert "1 connection(s) open; drained in" in out

    def test_serve_defaults(self):
        args = build_parser().parse_args(["serve"])
        assert args.port == 8890
        assert args.max_workers == 8
        assert args.queue_limit == 16
        assert args.workers == 1
        assert args.shards == 1

    def test_serve_rejects_bad_topology(self, capsys):
        assert main(["serve", "--workers", "0", "--smoke"]) == 2
        assert main(["serve", "--shards", "0", "--smoke"]) == 2

    def test_replay_rejects_bad_topology(self, capsys):
        assert main(["replay", "--workers", "0"]) == 2
        assert main(["replay", "--shards", "0"]) == 2

    def test_serve_sharded_smoke(self, capsys):
        assert main(["serve", "--port", "0", "--shards", "3", "--smoke"]) == 0
        out = capsys.readouterr().out
        assert "shards:" in out
        assert "/sparql" in out
        assert "smoke: probe ok" in out
        assert "drained in" in out

    def test_serve_sapphire_in_process_initializes(self, capsys):
        assert main(["serve", "--port", "0", "--sapphire", "--shards", "2",
                     "--smoke"]) == 0
        out = capsys.readouterr().out
        assert re.search(r"initialized: \d+ queries", out)
        assert "/complete" in out and "/suggest" in out
        assert "smoke: probe ok" in out

    @pytest.mark.parametrize("topology", [[], ["--workers", "2", "--shards", "2"]],
                             ids=["in-process", "prefork"])
    def test_replay_against_either_topology(self, topology, capsys):
        """``replay`` stands its server up through the same path as
        ``serve``, and the ledger reconciles against its /stats."""
        assert main(["replay", "--sessions", "3", "--processes", "0",
                     *topology]) == 0
        out = capsys.readouterr().out
        assert "reconciliation: clean" in out
        assert "replayed 3 sessions" in out

    def test_serve_prefork_smoke(self, capsys):
        """--workers 2 --smoke boots a real pool, probes it, drains."""
        assert main(["serve", "--port", "0", "--workers", "2",
                     "--shards", "2", "--smoke"]) == 0
        out = capsys.readouterr().out
        assert "workers:  2" in out
        assert "merged across workers" in out
        # The probe leaves a pooled keep-alive connection on a worker;
        # exit code 0 says the drain did not wait it out (< 5 s).
        assert "smoke: probe ok" in out
        assert "1 connection(s) open; drained in" in out

    def test_serve_samples_at_the_documented_default_in_both_topologies(
        self, monkeypatch, capsys
    ):
        """``--trace-sample-rate`` defaults to its documented 0.01: a
        worker's ``/stats`` reads it under ``--workers 1`` and ``2``."""
        import json
        import urllib.request

        from repro.net import PreforkServer, SparqlHttpServer

        rates = {}

        def stats(server):
            if isinstance(server, SparqlHttpServer):
                return server.app.stats_body()  # the body GET /stats answers with
            # One worker's own body, through the port the pool shares.
            with urllib.request.urlopen(server.url.rsplit("/", 1)[0] + "/stats", timeout=10) as reply:
                return json.load(reply)

        def read_rate_before_stop(cls):
            stop = cls.stop

            def stop_after_reading(self):
                if cls.__name__ not in rates:  # the pool's second stop finds no worker
                    rates[cls.__name__] = stats(self)["slow_queries"]["sample_rate"]
                stop(self)

            monkeypatch.setattr(cls, "stop", stop_after_reading)

        read_rate_before_stop(SparqlHttpServer)
        read_rate_before_stop(PreforkServer)
        assert main(["serve", "--port", "0", "--smoke"]) == 0
        assert main(["serve", "--port", "0", "--workers", "2", "--smoke"]) == 0
        assert rates == {"SparqlHttpServer": 0.01, "PreforkServer": 0.01}
