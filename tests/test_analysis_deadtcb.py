"""Unit tests: the static/dynamic dead-TCB cross-check and the T001 gate."""

import json
import pathlib
import shutil

import pytest

from repro.analysis.deadtcb import (
    check_dead_tcb,
    compute_dead_tcb,
    driver_statics,
    static_reachability,
)
from repro.analysis.modgraph import load_project
from repro.analysis.worlds import DEFAULT_WORLD_MAP
from repro.drivers.camera_driver import CameraDriver
from repro.drivers.i2s_driver import I2sDriver
from repro.drivers.usb_audio_driver import UsbAudioDriver

REPO_PACKAGE = pathlib.Path(__file__).resolve().parents[1] / "src" / "repro"


def _project():
    return load_project(REPO_PACKAGE)


def _i2s_dead_tcb(dynamic_hit):
    project = _project()
    return compute_dead_tcb(
        project, DEFAULT_WORLD_MAP, driver_statics(project)[I2sDriver.NAME],
        dynamic_hit,
    )


class TestStaticReachability:
    def test_roots_are_ta_entry_points(self):
        reach = static_reachability(_project(), DEFAULT_WORLD_MAP)
        assert any("AudioFilterTa.on_invoke" in e for e in reach.entry_points)

    def test_pta_dispatch_edge_reaches_driver_read(self):
        # TA -> invoke_pta -> SecureAudioPta.on_invoke -> driver.read_chunk
        reach = static_reachability(_project(), DEFAULT_WORLD_MAP)
        assert "read_chunk" in reach.called_names


class TestDeadTcb:
    def test_empty_dynamic_set_makes_everything_dead(self):
        report = _i2s_dead_tcb(frozenset())
        assert report.static_reachable
        assert set(report.dead) == set(report.static_reachable)
        assert report.dead_loc == report.static_loc > 0

    def test_fully_traced_driver_has_no_dead_tcb(self):
        report = _i2s_dead_tcb(frozenset(I2sDriver.functions()))
        assert report.dead == ()

    def test_dynamic_hit_restricted_to_driver_functions(self):
        report = _i2s_dead_tcb(frozenset({"read_chunk", "not_a_driver_fn"}))
        assert "not_a_driver_fn" not in report.dynamic_hit

    def test_to_doc_round_trips_counts(self):
        report = _i2s_dead_tcb(frozenset({"read_chunk"}))
        doc = report.to_doc()
        assert doc["driver"] == I2sDriver.NAME
        assert len(doc["dead"]) == len(report.dead)
        assert doc["dead_loc"] == report.dead_loc


class TestDriverStatics:
    """Parse-only driver extraction must mirror the runtime table exactly."""

    @pytest.mark.parametrize(
        "driver", [I2sDriver, UsbAudioDriver, CameraDriver],
        ids=lambda d: d.NAME,
    )
    def test_decorator_literals_match_runtime_functions(self, driver):
        statics = driver_statics(_project())[driver.NAME]
        runtime = {name: info.loc for name, info in driver.functions().items()}
        assert dict(statics.loc) == runtime

    def test_all_three_instrumented_drivers_found(self):
        assert set(driver_statics(_project())) >= {
            I2sDriver.NAME, UsbAudioDriver.NAME, CameraDriver.NAME,
        }


class TestDeadTcbGate:
    """T001 — regressions against the committed per-driver baseline."""

    @pytest.fixture()
    def repo_copy(self, tmp_path):
        dest = tmp_path / "repro"
        shutil.copytree(REPO_PACKAGE, dest)
        return dest

    def _baseline(self, root):
        return root / "analysis" / "deadtcb_baseline.json"

    def test_committed_baseline_is_clean(self):
        findings = check_dead_tcb(_project(), DEFAULT_WORLD_MAP)
        assert findings == []

    def test_missing_baseline_file_skips_pass(self, repo_copy):
        self._baseline(repo_copy).unlink()
        findings = check_dead_tcb(load_project(repo_copy), DEFAULT_WORLD_MAP)
        assert findings == []

    def test_untraced_reachable_function_regresses(self, repo_copy):
        # Drop a statically-reachable camera function from the committed
        # trace set: it becomes dead TCB that the baseline does not
        # accept, so both the per-function and the LoC-growth findings
        # must fire.
        path = self._baseline(repo_copy)
        doc = json.loads(path.read_text())
        entry = doc["drivers"][CameraDriver.NAME]
        assert "_sensor_detect" in entry["dynamic_hit"]
        entry["dynamic_hit"].remove("_sensor_detect")
        path.write_text(json.dumps(doc))
        findings = check_dead_tcb(load_project(repo_copy), DEFAULT_WORLD_MAP)
        fps = {f.fingerprint for f in findings}
        assert ("T001:repro.drivers.camera_driver:"
                f"deadtcb:{CameraDriver.NAME}:_sensor_detect") in fps
        assert ("T001:repro.drivers.camera_driver:"
                f"deadtcb:{CameraDriver.NAME}:loc") in fps
        assert all(f.severity == "error" for f in findings)

    def test_new_driver_without_baseline_entry_flagged(self, repo_copy):
        path = self._baseline(repo_copy)
        doc = json.loads(path.read_text())
        del doc["drivers"][UsbAudioDriver.NAME]
        path.write_text(json.dumps(doc))
        findings = check_dead_tcb(load_project(repo_copy), DEFAULT_WORLD_MAP)
        fps = {f.fingerprint for f in findings}
        assert ("T001:repro.drivers.usb_audio_driver:"
                f"deadtcb:{UsbAudioDriver.NAME}:missing") in fps

    def test_accepted_dead_set_does_not_fire(self, repo_copy):
        # The committed baseline already accepts the i2s dead set; the
        # gate only rejects *growth*, not the standing accepted debt.
        findings = check_dead_tcb(load_project(repo_copy), DEFAULT_WORLD_MAP)
        assert not [f for f in findings if I2sDriver.NAME in f.anchor]
