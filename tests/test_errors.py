"""Exception taxonomy tests."""

from repro import errors


class TestHierarchy:
    def test_everything_is_reproerror(self):
        for cls in (errors.ConfigError, errors.AssemblyError,
                    errors.LaunchError, errors.SimFault, errors.MemoryFault,
                    errors.LocalMemoryFault, errors.WatchdogTimeout,
                    errors.BarrierDeadlock, errors.IllegalInstruction):
            assert issubclass(cls, errors.ReproError)

    def test_due_conditions_are_simfaults(self):
        """Everything the FI engine classifies as DUE derives SimFault."""
        for cls in (errors.MemoryFault, errors.LocalMemoryFault,
                    errors.WatchdogTimeout, errors.BarrierDeadlock,
                    errors.IllegalInstruction):
            assert issubclass(cls, errors.SimFault)

    def test_host_side_errors_are_not_simfaults(self):
        for cls in (errors.ConfigError, errors.AssemblyError,
                    errors.LaunchError):
            assert not issubclass(cls, errors.SimFault)


class TestMessages:
    def test_memory_fault_formats_address(self):
        fault = errors.MemoryFault(0xDEAD0, "load")
        assert "0x000dead0" in str(fault)
        assert fault.address == 0xDEAD0

    def test_local_memory_fault(self):
        fault = errors.LocalMemoryFault(0x5000, 0x4000)
        assert "0x5000" in str(fault)

    def test_watchdog_carries_budget(self):
        fault = errors.WatchdogTimeout(100, 50)
        assert fault.cycles == 100 and fault.budget == 50

    def test_assembly_error_line_prefix(self):
        error = errors.AssemblyError("bad thing", line=7)
        assert "line 7" in str(error)
        assert error.line == 7

    def test_assembly_error_without_line(self):
        error = errors.AssemblyError("bad thing")
        assert error.line is None
