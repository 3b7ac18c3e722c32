// Tests for the simulated device-memory arena.
#include <gtest/gtest.h>

#include "sim/device_memory.hpp"

namespace tlp::sim {
namespace {

TEST(DeviceMemory, AllocAligned) {
  DeviceMemory mem;
  const auto a = mem.alloc<float>(3);
  const auto b = mem.alloc<float>(5);
  EXPECT_EQ(a.byte_offset % 256, 0u);
  EXPECT_EQ(b.byte_offset % 256, 0u);
  EXPECT_NE(a.byte_offset, b.byte_offset);
}

TEST(DeviceMemory, ReadWriteRoundTrip) {
  DeviceMemory mem;
  const auto p = mem.alloc<float>(10);
  mem.write<float>(p.addr(7), 3.25f);
  EXPECT_FLOAT_EQ(mem.read<float>(p.addr(7)), 3.25f);
}

TEST(DeviceMemory, ViewsSeeWrites) {
  DeviceMemory mem;
  const auto p = mem.alloc<std::int32_t>(4);
  auto v = mem.view(p);
  v[2] = 42;
  EXPECT_EQ(mem.read<std::int32_t>(p.addr(2)), 42);
}

TEST(DeviceMemory, LiveAndPeakAccounting) {
  DeviceMemory mem;
  auto a = mem.alloc<float>(100);  // 400 B
  EXPECT_EQ(mem.live_bytes(), 400);
  auto b = mem.alloc<float>(50);  // +200 B
  EXPECT_EQ(mem.live_bytes(), 600);
  EXPECT_EQ(mem.peak_bytes(), 600);
  mem.free(a);
  EXPECT_EQ(mem.live_bytes(), 200);
  EXPECT_EQ(mem.peak_bytes(), 600);  // peak is sticky
  mem.free(b);
  EXPECT_EQ(mem.live_bytes(), 0);
}

TEST(DeviceMemory, FreeNullsHandle) {
  DeviceMemory mem;
  auto p = mem.alloc<float>(8);
  mem.free(p);
  EXPECT_TRUE(p.is_null());
}

TEST(DeviceMemory, ResetClearsEverything) {
  DeviceMemory mem;
  (void)mem.alloc<float>(1000);
  mem.reset();
  EXPECT_EQ(mem.live_bytes(), 0);
  EXPECT_EQ(mem.peak_bytes(), 0);
  const auto p = mem.alloc<float>(1);
  EXPECT_EQ(p.byte_offset, 0u);
}

TEST(DeviceMemory, LargeAllocationGrows) {
  DeviceMemory mem;
  const auto p = mem.alloc<float>(1 << 22);  // 16 MB
  mem.write<float>(p.addr((1 << 22) - 1), 1.0f);
  EXPECT_FLOAT_EQ(mem.read<float>(p.addr((1 << 22) - 1)), 1.0f);
}

TEST(DevPtr, AddrArithmetic) {
  const DevPtr<std::int64_t> p{1024, 10};
  EXPECT_EQ(p.addr(0), 1024u);
  EXPECT_EQ(p.addr(3), 1024u + 24u);
}

TEST(DeviceMemory, CapacityLimitThrowsOutOfMemory) {
  DeviceMemory mem;
  mem.set_capacity(1024);
  auto a = mem.alloc<float>(128);  // 512 B, fits
  try {
    (void)mem.alloc<float>(256);  // 1024 B more would exceed the limit
    FAIL() << "expected OutOfMemory";
  } catch (const tlp::OutOfMemory& e) {
    EXPECT_EQ(e.requested_bytes, 1024);
    EXPECT_EQ(e.live_bytes, 512);
    EXPECT_EQ(e.capacity_bytes, 1024);
  }
  // The limit models a recycling allocator: freeing makes room again.
  mem.free(a);
  EXPECT_NO_THROW((void)mem.alloc<float>(256));
}

TEST(DeviceMemory, InjectedOomIsOneShot) {
  DeviceMemory mem;
  mem.set_fault_plan({.oom_at_alloc = 2});
  EXPECT_NO_THROW((void)mem.alloc<float>(8));
  EXPECT_THROW((void)mem.alloc<float>(8), tlp::OutOfMemory);
  EXPECT_NO_THROW((void)mem.alloc<float>(8));  // fault already consumed
  mem.reset();
  // The consumed fault stays consumed across reset() (degradation retries).
  EXPECT_NO_THROW((void)mem.alloc<float>(8));
}

TEST(DeviceMemory, GuardedCatchesOutOfBoundsAccess) {
  DeviceMemory mem(MemoryMode::kGuarded);
  const auto p = mem.alloc<float>(4);
  EXPECT_NO_THROW((void)mem.read<float>(p.addr(3)));
  EXPECT_THROW((void)mem.read<float>(p.addr(4)), tlp::InvalidAccess);
  EXPECT_THROW(mem.write<float>(p.addr(4), 1.0f), tlp::InvalidAccess);
}

TEST(DeviceMemory, GuardedCatchesStraddlingAccess) {
  DeviceMemory mem(MemoryMode::kGuarded);
  const auto p = mem.alloc<std::uint8_t>(6);
  // A 4-byte read at offset 4 covers bytes [4, 8) of a 6-byte buffer.
  EXPECT_THROW((void)mem.read<std::uint32_t>(p.addr(4)), tlp::InvalidAccess);
}

TEST(DeviceMemory, GuardedCatchesUseAfterFree) {
  DeviceMemory mem(MemoryMode::kGuarded);
  auto p = mem.alloc<float>(8);
  const auto addr = p.addr(0);
  mem.write<float>(addr, 1.0f);
  mem.free(p);
  EXPECT_THROW((void)mem.read<float>(addr), tlp::InvalidAccess);
}

TEST(DeviceMemory, GuardedPoisonsFreshAllocations) {
  DeviceMemory mem(MemoryMode::kGuarded);
  const auto p = mem.alloc<std::uint32_t>(2);
  EXPECT_EQ(mem.read<std::uint32_t>(p.addr(0)), 0xCDCDCDCDu);
}

TEST(DeviceMemory, DoubleFreeThrows) {
  DeviceMemory mem;
  auto p = mem.alloc<float>(8);
  const DevPtr<float> copy = p;
  mem.free(p);
  auto stale = copy;
  EXPECT_THROW(mem.free(stale), tlp::CheckError);
}

TEST(DeviceMemory, FreeOfUnknownAddressThrows) {
  DeviceMemory mem;
  (void)mem.alloc<float>(8);
  DevPtr<float> bogus{64, 8};  // never returned by alloc()
  EXPECT_THROW(mem.free(bogus), tlp::CheckError);
}

TEST(DeviceMemory, StaleViewDetectedAfterArenaGrowth) {
  DeviceMemory mem;
  const auto p = mem.alloc<std::int32_t>(4);
  auto v = mem.view(p);
  v[0] = 7;  // fresh view works
  (void)mem.alloc<std::byte>(4 << 20);  // forces the arena to grow and move
  EXPECT_THROW((void)v[0], tlp::CheckError);
  auto fresh = mem.view(p);  // re-acquired views see the data at its new home
  EXPECT_EQ(fresh[0], 7);
}

TEST(DeviceMemory, FlipBitCorruptsStoredValue) {
  DeviceMemory mem;
  const auto p = mem.alloc<std::uint32_t>(1);
  mem.write<std::uint32_t>(p.addr(0), 0u);
  mem.flip_bit(p.addr(0), 5);
  EXPECT_EQ(mem.read<std::uint32_t>(p.addr(0)), 1u << 5);
  mem.flip_bit(p.addr(0), 5);  // flipping twice restores the value
  EXPECT_EQ(mem.read<std::uint32_t>(p.addr(0)), 0u);
}

TEST(CheckMacros, ComparisonMacrosPrintBothOperands) {
  try {
    const int rows = 3, cols = 7;
    TLP_CHECK_EQ(rows, cols);
    FAIL() << "expected CheckError";
  } catch (const tlp::CheckError& e) {
    const std::string what = e.what();
    EXPECT_NE(what.find("rows == cols"), std::string::npos);
    EXPECT_NE(what.find('3'), std::string::npos);
    EXPECT_NE(what.find('7'), std::string::npos);
  }
}

}  // namespace
}  // namespace tlp::sim
