"""Restore fragmentation metrics."""

from repro.storage.container import ChunkLocation
from repro.storage.restore import FragmentationAnalyzer, FragmentationReport


class TestFragmentationAnalyzer:
    def test_sequential_stream(self):
        locations = [ChunkLocation(0, i * 10, 10) for i in range(10)]
        report = FragmentationAnalyzer.analyze(locations)
        assert report.containers_touched == 1
        assert report.container_switches == 0
        assert report.fragmentation_factor == 0.0

    def test_fully_fragmented_stream(self):
        locations = [ChunkLocation(i, 0, 10) for i in range(10)]
        report = FragmentationAnalyzer.analyze(locations)
        assert report.containers_touched == 10
        assert report.fragmentation_factor == 1.0

    def test_empty(self):
        report = FragmentationAnalyzer.analyze([])
        assert report == FragmentationReport(0, 0, 0, 0.0)

    def test_single_chunk(self):
        report = FragmentationAnalyzer.analyze([ChunkLocation(3, 0, 5)])
        assert report.fragmentation_factor == 0.0
        assert report.chunks_per_container == 1.0
