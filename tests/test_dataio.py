import numpy as np
import pytest

from fimnar.basis import binary, categorical, continuous
from fimnar.dataio import DataSchema, Dataset, IngestError, emit, ingest

KINDS = {"x": continuous(), "z": categorical(["1", "2"])}
SCHEMA = DataSchema(kinds=KINDS, y="y")


def write(tmp_path, text, name="data.csv"):
    path = tmp_path / name
    path.write_text(text)
    return path


def test_ingest_counts_missing(tmp_path):
    path = write(tmp_path, "x,z,y\n0.1,1,2.0\n-0.3,2,NA\n1.2,1,0.5\n")
    data = ingest(path, SCHEMA)
    assert data.n == 3
    assert data.n_respondents == 2
    assert data.n_missing == 1
    assert np.isnan(data.y[1]) and data.delta[1] == 0


def test_ingest_empty_field_is_missing(tmp_path):
    path = write(tmp_path, "x,z,y\n0.1,1,\n0.2,2,1.0\n")
    data = ingest(path, SCHEMA)
    assert data.n_missing == 1


def test_ingest_tab_delimited(tmp_path):
    path = write(tmp_path, "x\tz\ty\n0.1\t1\t2.0\n0.4\t2\t1.0\n")
    data = ingest(path, SCHEMA)
    assert data.n == 2 and data.n_respondents == 2


def test_delta_column_conflict_names_the_row(tmp_path):
    # the conflict is on file line 3, the header being line 1
    schema = DataSchema(kinds=KINDS, y="y", delta="delta")
    path = write(
        tmp_path,
        "x,z,y,delta\n0.1,1,2.0,1\n0.2,2,NA,1\n0.3,1,1.0,1\n",
    )
    with pytest.raises(IngestError, match="row 3"):
        ingest(path, schema)


@pytest.mark.parametrize("cell", ["NA", "nan", ""])
def test_missing_covariate_names_the_file_line(tmp_path, cell):
    # every spelling of a missing covariate counts file lines, as the
    # indicator conflict does
    path = write(tmp_path, f"x,z,y\n0.1,1,2.0\n{cell},2,1.0\n")
    with pytest.raises(IngestError, match="^row 3: covariate 'x' is missing"):
        ingest(path, SCHEMA)


def test_explicit_delta_column_accepted_when_consistent(tmp_path):
    schema = DataSchema(kinds=KINDS, y="y", delta="delta")
    path = write(tmp_path, "x,z,y,delta\n0.1,1,2.0,1\n0.2,2,NA,0\n")
    data = ingest(path, schema)
    assert data.delta.tolist() == [1, 0]


def test_missing_covariate_rejected(tmp_path):
    path = write(tmp_path, "x,z,y\nNA,1,2.0\n0.2,2,1.0\n")
    with pytest.raises(IngestError, match="completely observed"):
        ingest(path, SCHEMA)


def test_type_error_reports_location(tmp_path):
    path = write(tmp_path, "x,z,y\n0.1,1,2.0\nfoo,2,1.0\n")
    with pytest.raises(IngestError, match="row 3.*'x'"):
        ingest(path, SCHEMA)


def test_undeclared_level_rejected(tmp_path):
    path = write(tmp_path, "x,z,y\n0.1,9,2.0\n")
    with pytest.raises(IngestError):
        ingest(path, SCHEMA)


def test_missing_column_rejected(tmp_path):
    path = write(tmp_path, "x,y\n0.1,2.0\n")
    with pytest.raises(IngestError, match="'z' not found"):
        ingest(path, SCHEMA)


def test_no_respondents_rejected(tmp_path):
    path = write(tmp_path, "x,z,y\n0.1,1,NA\n0.2,2,NA\n")
    with pytest.raises(IngestError, match="no respondents"):
        ingest(path, SCHEMA)


def test_round_trip(tmp_path):
    path = write(
        tmp_path,
        "x,z,y\n0.125,1,2.5\n-0.75,2,NA\n1.5,1,0.25\n",
    )
    data = ingest(path, SCHEMA)
    out = tmp_path / "echo.csv"
    emit(data, out)
    again = ingest(out, DataSchema(kinds=KINDS, y="y", delta="delta"))
    assert np.array_equal(again.columns["x"], data.columns["x"])
    assert np.array_equal(again.columns["z"], data.columns["z"])
    assert np.array_equal(again.delta, data.delta)
    assert np.allclose(again.y, data.y, equal_nan=True)


def test_standardization_records_transform(tmp_path):
    schema = DataSchema(kinds=KINDS, y="y", standardize=("x",))
    path = write(tmp_path, "x,z,y\n1.0,1,2.0\n3.0,2,1.0\n5.0,1,NA\n")
    data = ingest(path, schema)
    assert data.transforms["x"][0] == pytest.approx(3.0)
    assert np.mean(data.columns["x"]) == pytest.approx(0.0, abs=1e-12)
    assert np.std(data.columns["x"]) == pytest.approx(1.0)


def test_standardize_requires_continuous():
    with pytest.raises(IngestError):
        DataSchema(kinds=KINDS, y="y", standardize=("z",))


def test_binary_covariate_values_validated():
    with pytest.raises(IngestError, match="binary"):
        Dataset(
            columns={"w": np.array([0.0, 2.0])},
            y=np.array([1.0, 2.0]),
            delta=np.array([1, 1]),
            kinds={"w": binary()},
        )
