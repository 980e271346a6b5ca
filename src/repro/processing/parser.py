"""The Parser component: raw serial fragments to NMEA sentences.

Fig. 1/Fig. 4: the GPS sensor delivers "Raw Data (Strings)"; the Parser
assembles them into NMEA measurements.  Several raw fragments make up one
sentence, which is exactly the many-to-one relationship the channel's
logical time records.  Corrupt lines (failed checksum, unknown type) are
dropped -- a seam the NumberOfSatellites/HDOP features later expose
rather than hide.

A receiver repeats much of what it says: the satellites in view, the
DOPs and the track stay the same for many epochs, so the same GSA, GSV
and VTG lines come back verbatim.  Each parser remembers the value it
decoded for such a line (see :data:`MEMO_TYPES`) and decodes a repeat
once.  GGA and RMC lines carry a UTC time, never repeat, and are never
remembered.
"""

from __future__ import annotations

from typing import Dict

from repro.core.component import InputPort, OutputPort, ProcessingComponent
from repro.core.data import Datum, Kind
from repro.sensors.nmea import NmeaError, NmeaSentence, parse_sentence

#: Sentence types without a time field, whose lines can repeat verbatim.
MEMO_TYPES = frozenset(("GSA", "GSV", "VTG"))


class NmeaParserComponent(ProcessingComponent):
    """Buffers raw string fragments and emits parsed NMEA sentences."""

    #: Most decoded lines one parser remembers; the oldest goes first.
    memo_limit = 64

    def __init__(self, name: str = "parser") -> None:
        super().__init__(
            name,
            inputs=(InputPort("in", (Kind.NMEA_RAW,)),),
            output=OutputPort((Kind.NMEA_SENTENCE,)),
        )
        self._buffer = ""
        self.dropped_lines = 0
        # Framed line -> its decoded sentence, for MEMO_TYPES lines that
        # decoded; per parser, so every set-up starts cold.
        self._memo: Dict[str, NmeaSentence] = {}

    def process(self, port_name: str, datum: Datum) -> None:
        payload = datum.payload
        if "\n" not in payload and "\r" not in payload:
            self._buffer += payload  # mid-line: nothing completes
            return
        # Emit every complete line; keep any trailing partial fragment.
        # A line ends at its earliest CR or LF; a run of them (CRLF,
        # blank lines) leaves empty lines, which are skipped.
        buffer = self._buffer + payload
        *lines, self._buffer = buffer.replace("\r", "\n").split("\n")
        memo = self._memo
        for line in lines:
            line = line.strip()
            if not line:
                continue
            sentence = memo.get(line)
            if sentence is None:
                try:
                    sentence = parse_sentence(line)
                except NmeaError:
                    self.dropped_lines += 1
                    continue
                if sentence.sentence_type in MEMO_TYPES:
                    if len(memo) >= self.memo_limit:
                        del memo[next(iter(memo))]
                    memo[line] = sentence
            self.produce(
                Datum(Kind.NMEA_SENTENCE, sentence, datum.timestamp, self.name)
            )

    def pending_bytes(self) -> int:
        """Size of the unparsed buffer; exposed for inspection."""
        return len(self._buffer)
