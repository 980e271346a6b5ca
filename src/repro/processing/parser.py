"""The Parser component: raw serial fragments to NMEA sentences.

Fig. 1/Fig. 4: the GPS sensor delivers "Raw Data (Strings)"; the Parser
assembles them into NMEA measurements.  Several raw fragments make up one
sentence, which is exactly the many-to-one relationship the channel's
logical time records.  Corrupt lines (failed checksum, unknown type) are
dropped -- a seam the NumberOfSatellites/HDOP features later expose
rather than hide.
"""

from __future__ import annotations

from typing import Optional

from repro.core.component import InputPort, OutputPort, ProcessingComponent
from repro.core.data import Datum, Kind
from repro.sensors.nmea import NmeaError, parse_sentence


class NmeaParserComponent(ProcessingComponent):
    """Buffers raw string fragments and emits parsed NMEA sentences."""

    def __init__(self, name: str = "parser") -> None:
        super().__init__(
            name,
            inputs=(InputPort("in", (Kind.NMEA_RAW,)),),
            output=OutputPort((Kind.NMEA_SENTENCE,)),
        )
        self._buffer = ""
        self.dropped_lines = 0

    def process(self, port_name: str, datum: Datum) -> None:
        self._buffer += datum.payload
        # Emit every complete line; keep any trailing partial fragment.
        while True:
            index = self._find_terminator()
            if index is None:
                break
            line, self._buffer = (
                self._buffer[:index],
                self._buffer[index:].lstrip("\r\n"),
            )
            line = line.strip()
            if not line:
                continue
            try:
                sentence = parse_sentence(line)
            except NmeaError:
                self.dropped_lines += 1
                continue
            self.produce(
                Datum(
                    kind=Kind.NMEA_SENTENCE,
                    payload=sentence,
                    timestamp=datum.timestamp,
                    producer=self.name,
                )
            )

    def _find_terminator(self) -> Optional[int]:
        for terminator in ("\r\n", "\n", "\r"):
            index = self._buffer.find(terminator)
            if index >= 0:
                return index
        return None

    def pending_bytes(self) -> int:
        """Size of the unparsed buffer; exposed for inspection."""
        return len(self._buffer)
