"""Tests for serialization (busytime.io)."""

import json

import pytest

from busytime import Instance, first_fit
from busytime.generators import uniform_random_instance, uniform_traffic
from busytime.io import (
    instance_from_dict,
    instance_rows_from_dict,
    instance_to_dict,
    jobs_from_csv,
    jobs_to_csv,
    load_instance,
    load_schedule,
    load_traffic,
    save_instance,
    save_schedule,
    save_traffic,
    schedule_from_dict,
    schedule_to_dict,
    trace_event_from_dict,
    traffic_from_dict,
    traffic_to_dict,
)


class TestInstanceSerialization:
    def test_dict_round_trip(self):
        inst = uniform_random_instance(12, g=3, seed=1)
        back = instance_from_dict(instance_to_dict(inst))
        assert back.g == inst.g
        assert back.name == inst.name
        assert [(j.id, j.start, j.end) for j in back.jobs] == [
            (j.id, j.start, j.end) for j in inst.jobs
        ]

    def test_file_round_trip(self, tmp_path):
        inst = uniform_random_instance(8, g=2, seed=2)
        path = tmp_path / "inst.json"
        save_instance(inst, path)
        back = load_instance(path)
        assert back.n == inst.n
        assert json.loads(path.read_text())["format"] == "busytime-instance"

    def test_preserves_tags_and_weights(self):
        from busytime.core.intervals import Interval, Job

        inst = Instance(
            jobs=(Job(id=3, interval=Interval(0, 2), weight=2.5, tag="x"),), g=1
        )
        back = instance_from_dict(instance_to_dict(inst))
        assert back.jobs[0].weight == 2.5
        assert back.jobs[0].tag == "x"

    def test_wrong_format_rejected(self):
        with pytest.raises(ValueError):
            instance_from_dict({"format": "something-else"})


class TestScheduleSerialization:
    def test_round_trip_revalidates(self, tmp_path):
        inst = uniform_random_instance(15, g=2, seed=3)
        sched = first_fit(inst)
        path = tmp_path / "sched.json"
        save_schedule(sched, path)
        back = load_schedule(path)
        assert back.total_busy_time == pytest.approx(sched.total_busy_time)
        assert back.num_machines == sched.num_machines
        assert back.algorithm == "first_fit"
        assert back.assignment() == sched.assignment()

    def test_corrupted_partition_rejected(self):
        inst = uniform_random_instance(5, g=2, seed=4)
        sched = first_fit(inst)
        data = schedule_to_dict(sched)
        data["machines"][0]["job_ids"].append(data["machines"][0]["job_ids"][0])
        with pytest.raises(Exception):
            schedule_from_dict(data)

    def test_wrong_format_rejected(self):
        with pytest.raises(ValueError):
            schedule_from_dict({"format": "nope"})


class TestIntegerFields:
    """An integer field reads a JSON integer or a float with an integral
    value, and refuses what ``int()`` would silently change."""

    @pytest.mark.parametrize("value", [2.5, "7", True, None, float("inf")])
    def test_instance_fields_refuse_other_values(self, value):
        # A null site_capacity means uncapped, so it is not refused.
        fields = ("id", "g") if value is None else ("id", "g", "site_capacity")
        for field in fields:
            data = instance_to_dict(uniform_random_instance(5, g=2, seed=4))
            if field == "id":
                data["jobs"][0]["id"] = value
                name = 'job row 0 "id"'
            else:
                data[field] = value
                name = f'"{field}"'
            with pytest.raises(ValueError, match=f"{name} must be a finite integer"):
                instance_rows_from_dict(data)

    @pytest.mark.parametrize("value", [2.5, "7", True, None, float("inf")])
    def test_placement_ids_refuse_other_values(self, value):
        data = schedule_to_dict(first_fit(uniform_random_instance(5, g=2, seed=4)))
        job = data["instance"]["jobs"][0]
        data["placements"] = [{"id": value, "start": job["start"], "end": job["end"]}]
        with pytest.raises(ValueError, match='placement row 0 "id" must be a finite integer'):
            schedule_from_dict(data)

    @pytest.mark.parametrize("value", [2.5, "7", True, None, float("inf")])
    def test_schedule_and_event_ids_refuse_other_values(self, value):
        for field in ("index", "job_ids"):
            data = schedule_to_dict(first_fit(uniform_random_instance(5, g=2, seed=4)))
            row = data["machines"][0]
            if field == "index":
                row["index"] = value
            else:
                row["job_ids"][0] = value
            with pytest.raises(
                ValueError, match=f'machine row 0 "{field}" must be a finite integer'
            ):
                schedule_from_dict(data)
        event = {"time": 0.0, "kind": "arrive", "job": {"id": value, "start": 0.0, "end": 1.0}}
        with pytest.raises(ValueError, match='event job "id" must be a finite integer'):
            trace_event_from_dict(event)

    def test_integral_floats_read_as_integers(self):
        data = instance_to_dict(uniform_random_instance(5, g=2, seed=4))
        data["g"] = 2.0
        data["jobs"][0]["id"] = float(data["jobs"][0]["id"])
        rows = instance_rows_from_dict(data)
        assert type(rows.g) is int and rows.g == 2
        assert type(rows.ids[0]) is int
        event = {"time": 0.0, "kind": "arrive", "job": {"id": 3.0, "start": 0.0, "end": 1.0}}
        assert type(trace_event_from_dict(event).job.id) is int


class TestTrafficSerialization:
    def test_round_trip(self, tmp_path):
        traffic = uniform_traffic(20, 30, g=3, seed=5)
        path = tmp_path / "traffic.json"
        save_traffic(traffic, path)
        back = load_traffic(path)
        assert back.g == traffic.g
        assert back.network.num_nodes == traffic.network.num_nodes
        assert [(p.a, p.b) for p in back] == [(p.a, p.b) for p in traffic]

    def test_dict_round_trip(self):
        traffic = uniform_traffic(10, 12, g=2, seed=6)
        assert traffic_from_dict(traffic_to_dict(traffic)).n == traffic.n

    def test_wrong_format_rejected(self):
        with pytest.raises(ValueError):
            traffic_from_dict({"format": "nope"})


class TestVersionValidation:
    """Loaders validate the ``version`` header they write (forward safety:
    a future format revision fails loudly instead of being half-parsed)."""

    def _documents(self):
        inst = uniform_random_instance(6, g=2, seed=3)
        sched = first_fit(inst)
        from busytime import Engine, SolveRequest
        from busytime.io import solve_report_from_dict, solve_report_to_dict

        report = Engine().solve(SolveRequest(instance=inst))
        traffic = uniform_traffic(10, 12, g=2, seed=3)
        return [
            (instance_to_dict(inst), instance_from_dict),
            (schedule_to_dict(sched), schedule_from_dict),
            (solve_report_to_dict(report), solve_report_from_dict),
            (traffic_to_dict(traffic), traffic_from_dict),
        ]

    def test_current_version_accepted(self):
        from busytime.io import _SUPPORTED_VERSIONS

        for doc, loader in self._documents():
            # Writers stamp a version the readers understand.  Instance and
            # schedule documents of *rigid* instances deliberately stamp the
            # flex-free version 2 so archives of them stay byte-identical;
            # version 3 is reserved for documents that use a flex field.
            assert doc["version"] in _SUPPORTED_VERSIONS[doc["format"]]
            if doc["format"] in ("busytime-instance", "busytime-schedule"):
                assert doc["version"] == 2
            loader(doc)  # round-trips without complaint

    def test_flex_documents_stamp_version3(self):
        from busytime.algorithms import tariff_local_search
        from busytime.core.instance import Instance
        from busytime.core.intervals import Interval, Job

        inst = Instance(
            jobs=(Job(0, Interval(2.0, 4.0), release=0.0, deadline=8.0),),
            g=1,
        )
        doc = instance_to_dict(inst)
        assert doc["version"] == 3
        assert doc["jobs"][0]["release"] == 0.0
        assert instance_from_dict(doc).jobs == inst.jobs
        sched = tariff_local_search(inst)
        sdoc = schedule_to_dict(sched)
        assert sdoc["version"] == 3
        rebuilt = schedule_from_dict(json.loads(json.dumps(sdoc)))
        assert [(j.start, j.end) for m in rebuilt.machines for j in m.jobs] == [
            (j.start, j.end) for m in sched.machines for j in m.jobs
        ]

    def test_version1_documents_still_load(self):
        """Back-compat: pre-problem-model documents (no demand, no objective
        fields) load with the defaults that *are* the version-1 semantics."""
        for doc, loader in self._documents():
            if doc["format"] == "busytime-traffic":
                continue
            legacy = json.loads(json.dumps(doc))
            def strip(node):
                if isinstance(node, dict):
                    node.pop("demand", None)
                    node.pop("objective", None)
                    node.pop("objective_value", None)
                    if node.get("format") in (
                        "busytime-instance",
                        "busytime-schedule",
                        "busytime-solve-report",
                    ):
                        node["version"] = 1
                    for value in node.values():
                        strip(value)
                elif isinstance(node, list):
                    for value in node:
                        strip(value)
            strip(legacy)
            loaded = loader(legacy)
            if doc["format"] == "busytime-instance":
                assert all(j.demand == 1 for j in loaded.jobs)
            if doc["format"] == "busytime-solve-report":
                assert loaded.objective == "busy_time"
                assert loaded.objective_value is None
                assert loaded.value == loaded.cost

    def test_unknown_version_rejected_with_clear_message(self):
        for doc, loader in self._documents():
            doc = dict(doc)
            doc["version"] = 99
            with pytest.raises(ValueError, match="unsupported .* version 99"):
                loader(doc)

    def test_non_object_document_rejected_with_value_error(self):
        # Valid JSON that is not an object must be a format error, never an
        # AttributeError out of the header check.
        for loader in (
            instance_from_dict,
            schedule_from_dict,
            traffic_from_dict,
        ):
            for document in ([1, 2, 3], "text", 7, None):
                with pytest.raises(ValueError, match="expected a JSON object"):
                    loader(document)

    def test_missing_version_defaults_to_one(self):
        # Documents written before the version check carry version 1
        # semantics; absence must not start rejecting old archives.
        doc = instance_to_dict(uniform_random_instance(4, g=2, seed=4))
        doc.pop("version")
        instance_from_dict(doc)


class TestCsv:
    def test_round_trip(self, tmp_path):
        inst = uniform_random_instance(10, g=2, seed=7)
        path = tmp_path / "jobs.csv"
        jobs_to_csv(inst, path)
        back = jobs_from_csv(path, g=2)
        assert back.n == inst.n
        assert back.total_length == pytest.approx(inst.total_length)

    def test_minimal_columns(self, tmp_path):
        path = tmp_path / "jobs.csv"
        path.write_text("start,end\n0,5\n3,9\n")
        inst = jobs_from_csv(path, g=1, name="minimal")
        assert inst.n == 2
        assert inst.jobs[1].id == 1
        assert inst.name == "minimal"

    def test_missing_columns_rejected(self, tmp_path):
        path = tmp_path / "bad.csv"
        path.write_text("a,b\n1,2\n")
        with pytest.raises(ValueError):
            jobs_from_csv(path, g=1)
