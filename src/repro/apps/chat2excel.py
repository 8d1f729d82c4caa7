"""chat2excel: conversational access to spreadsheet workbooks."""

from __future__ import annotations

import pathlib
import re

from repro.apps.base import Application, AppResponse
from repro.apps.chat2data import Chat2DataApp
from repro.datasources.excel_source import ExcelSource, Workbook
from repro.smmf.client import LLMClient

_SHOW_SHEETS = re.compile(r"^(show|list)\s+(the\s+)?sheets?\b", re.IGNORECASE)


class Chat2ExcelApp(Application):
    """Chat with a workbook: sheet discovery plus analytical questions.

    Sheets become SQL tables under the hood, so the full question
    grammar of chat2data works over spreadsheet data.
    """

    name = "chat2excel"

    def __init__(
        self,
        client: LLMClient,
        workbook: Workbook,
        sql_model: str = "sql-coder",
    ) -> None:
        self._source = ExcelSource(workbook)
        self._inner = Chat2DataApp(client, self._source, sql_model)
        self.workbook = workbook

    @classmethod
    def from_xlsx(
        cls, client: LLMClient, path: pathlib.Path | str
    ) -> "Chat2ExcelApp":
        return cls(client, Workbook.load_xlsx(path))

    def chat(self, text: str) -> AppResponse:
        if _SHOW_SHEETS.match(text.strip()):
            names = ", ".join(self.workbook.sheet_names())
            return AppResponse(
                text=f"The workbook contains these sheets: {names}.",
                payload=self.workbook.sheet_names(),
            )
        return self._inner.chat(text)
