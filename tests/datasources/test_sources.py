"""Tests for the data source connectors and registry."""

import pytest

from repro.datasources import (
    CsvSource,
    DataSourceError,
    DataSourceRegistry,
    EngineSource,
    ExcelSource,
    Sheet,
    Workbook,
    profile_source,
    read_csv_records,
)
from repro.datasources.csv_source import write_csv_records
from repro.sqlengine import Database


@pytest.fixture
def sales_source():
    db = Database("shop")
    db.execute("CREATE TABLE items (id INTEGER PRIMARY KEY, name TEXT, price REAL)")
    db.execute("INSERT INTO items VALUES (1,'pen',1.5),(2,'book',12.0)")
    return EngineSource(db)


class TestEngineSource:
    def test_tables_metadata(self, sales_source):
        infos = sales_source.tables()
        assert len(infos) == 1
        assert infos[0].name == "items"
        assert infos[0].row_count == 2
        assert infos[0].columns == ["id", "name", "price"]

    def test_query(self, sales_source):
        assert sales_source.query("SELECT COUNT(*) FROM items").scalar() == 2

    def test_query_error_wrapped(self, sales_source):
        with pytest.raises(DataSourceError):
            sales_source.query("SELECT * FROM nope")

    def test_describe_schema(self, sales_source):
        text = sales_source.describe_schema()
        assert "items(" in text
        assert "price REAL" in text

    def test_sample_rows(self, sales_source):
        sample = sales_source.sample_rows("items", limit=1)
        assert len(sample.rows) == 1

    def test_sample_rows_unknown_table(self, sales_source):
        with pytest.raises(DataSourceError):
            sales_source.sample_rows("nope")

    def test_has_table_case_insensitive(self, sales_source):
        assert sales_source.has_table("ITEMS")


class TestCsvSource:
    def test_round_trip(self, tmp_path):
        write_csv_records(
            tmp_path / "pets.csv",
            [
                {"name": "rex", "legs": 4, "aquatic": False},
                {"name": "nemo", "legs": None, "aquatic": True},
            ],
        )
        records = read_csv_records(tmp_path / "pets.csv")
        assert records[0] == {"name": "rex", "legs": 4, "aquatic": False}
        assert records[1]["legs"] is None
        assert records[1]["aquatic"] is True

    def test_directory_source(self, tmp_path):
        write_csv_records(tmp_path / "pets.csv", [{"name": "rex", "legs": 4}])
        write_csv_records(tmp_path / "toys.csv", [{"toy": "ball", "price": 2.5}])
        source = CsvSource(tmp_path)
        assert sorted(source.table_names()) == ["pets", "toys"]
        assert source.query("SELECT legs FROM pets").scalar() == 4

    def test_missing_directory(self, tmp_path):
        with pytest.raises(DataSourceError):
            CsvSource(tmp_path / "nope")

    def test_empty_directory(self, tmp_path):
        with pytest.raises(DataSourceError, match="no CSV files"):
            CsvSource(tmp_path)

    def test_missing_file(self, tmp_path):
        with pytest.raises(DataSourceError):
            read_csv_records(tmp_path / "nope.csv")

    def test_typed_parsing(self, tmp_path):
        (tmp_path / "data.csv").write_text("a,b,c\n1,2.5,true\n")
        records = read_csv_records(tmp_path / "data.csv")
        assert records == [{"a": 1, "b": 2.5, "c": True}]


class TestWorkbookAndExcelSource:
    def build_workbook(self):
        sheet = Sheet.from_records(
            "Sales Data",
            [
                {"region": "north", "revenue": 120.5, "units": 3},
                {"region": "south", "revenue": 80.0, "units": 2},
            ],
        )
        return Workbook([sheet])

    def test_sheet_round_trip_records(self):
        workbook = self.build_workbook()
        records = workbook.sheet("sales data").to_records()
        assert records[0]["region"] == "north"

    def test_duplicate_sheet_rejected(self):
        workbook = self.build_workbook()
        with pytest.raises(DataSourceError):
            workbook.add_sheet(Sheet("Sales Data", ["a"], [[1]]))

    def test_xlsx_round_trip(self, tmp_path):
        workbook = self.build_workbook()
        path = tmp_path / "book.xlsx"
        workbook.save_xlsx(path)
        loaded = Workbook.load_xlsx(path)
        assert loaded.sheet_names() == ["Sales Data"]
        assert loaded.sheet("Sales Data").rows == [
            ["north", 120.5, 3],
            ["south", 80.0, 2],
        ]

    def test_xlsx_preserves_types(self, tmp_path):
        sheet = Sheet("t", ["i", "f", "s", "b", "n"], [[1, 2.5, "x", True, None]])
        path = tmp_path / "book.xlsx"
        Workbook([sheet]).save_xlsx(path)
        row = Workbook.load_xlsx(path).sheet("t").rows[0]
        assert row == [1, 2.5, "x", True, None]

    def test_excel_source_sql(self, tmp_path):
        workbook = self.build_workbook()
        source = ExcelSource(workbook)
        assert source.query("SELECT SUM(revenue) FROM sales_data").scalar() == 200.5

    def test_from_xlsx(self, tmp_path):
        path = tmp_path / "book.xlsx"
        self.build_workbook().save_xlsx(path)
        source = ExcelSource.from_xlsx(path)
        assert source.has_table("sales_data")

    def test_empty_workbook_rejected(self):
        with pytest.raises(DataSourceError):
            ExcelSource(Workbook())

    def test_missing_workbook_file(self, tmp_path):
        with pytest.raises(DataSourceError):
            Workbook.load_xlsx(tmp_path / "nope.xlsx")

    def test_xml_escaping(self, tmp_path):
        sheet = Sheet("t", ["v"], [['a<b>&"c']])
        path = tmp_path / "book.xlsx"
        Workbook([sheet]).save_xlsx(path)
        assert Workbook.load_xlsx(path).sheet("t").rows[0][0] == 'a<b>&"c'


class TestRegistry:
    def test_register_get(self, sales_source):
        registry = DataSourceRegistry()
        registry.register(sales_source)
        assert registry.get("shop") is sales_source
        assert registry.names() == ["shop"]

    def test_duplicate_rejected(self, sales_source):
        registry = DataSourceRegistry()
        registry.register(sales_source)
        with pytest.raises(DataSourceError):
            registry.register(sales_source)

    def test_unknown_name(self):
        registry = DataSourceRegistry()
        with pytest.raises(DataSourceError, match="no source"):
            registry.get("ghost")

    def test_unregister(self, sales_source):
        registry = DataSourceRegistry()
        registry.register(sales_source)
        registry.unregister("shop")
        assert registry.names() == []

    def test_connect_csv_uri(self, tmp_path):
        write_csv_records(tmp_path / "pets.csv", [{"name": "rex"}])
        registry = DataSourceRegistry()
        source = registry.connect(f"csv://{tmp_path}")
        assert source.has_table("pets")
        assert registry.get(tmp_path.name) is source

    def test_connect_unknown_scheme(self):
        registry = DataSourceRegistry()
        with pytest.raises(DataSourceError, match="unknown scheme"):
            registry.connect("ftp://nope")


class TestInspector:
    def test_profile_columns(self, sales_source):
        profiles = profile_source(sales_source, "items")
        by_column = {p.column: p for p in profiles}
        assert by_column["price"].min_value == 1.5
        assert by_column["price"].max_value == 12.0
        assert by_column["name"].distinct_count == 2
        assert by_column["name"].null_count == 0

    def test_profile_describe_text(self, sales_source):
        text = profile_source(sales_source, "items")[0].describe()
        assert "items.id" in text


class TestAwkwardIdentifiers:
    """Header-derived names that are keywords or hold a space: every
    SQL statement the prompt and profile code builds quotes them."""

    @pytest.fixture
    def awkward(self):
        db = Database()
        db.load_table(
            "order",
            [
                {"id": 1, "order": "a", "first name": "x"},
                {"id": 2, "order": None, "first name": "y"},
                {"id": 3, "order": "a", "first name": "x"},
            ],
        )
        return EngineSource(db)

    def test_prompt_context(self, awkward):
        assert awkward.prompt_context()[1:] == (
            "order.order: a",
            "order.first name: x, y",
        )

    def test_schema_index(self, awkward):
        from repro.nlu.schema_linking import SchemaIndex

        index = SchemaIndex.from_source(awkward)
        assert index.value_index["x"] == [("order", "first name")]
        assert index.value_index["a"] == [("order", "order")]

    def test_profile_source(self, awkward):
        profiles = {p.column: p for p in profile_source(awkward)}
        assert profiles["order"].null_count == 1
        assert profiles["first name"].sample_values == ["x", "y"]

    def test_sample_rows(self, awkward):
        assert len(awkward.sample_rows("order", limit=2)) == 2

    def test_quoted_probe_reads_the_dictionary(self, awkward):
        plan = awkward.query(
            'EXPLAIN SELECT DISTINCT "first name" FROM "order" '
            'WHERE "first name" IS NOT NULL LIMIT 20'
        ).column("plan")
        assert "Distinct [columnar]" in plan
