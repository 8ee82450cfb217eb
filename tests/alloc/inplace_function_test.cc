#include "common/alloc/inplace_function.h"

#include <gtest/gtest.h>

#include <cstdint>
#include <type_traits>
#include <utility>
#include <vector>

namespace proteus {
namespace {

using Fn = alloc::InplaceFunction<64>;

TEST(InplaceFunctionTest, InvokesCapturedLambda)
{
    int hits = 0;
    Fn fn = [&hits] { ++hits; };
    ASSERT_TRUE(static_cast<bool>(fn));
    fn();
    fn();
    EXPECT_EQ(hits, 2);
}

TEST(InplaceFunctionTest, DefaultConstructedIsEmpty)
{
    Fn fn;
    EXPECT_FALSE(static_cast<bool>(fn));
}

TEST(InplaceFunctionTest, MoveTransfersTheCallable)
{
    int hits = 0;
    Fn a = [&hits] { ++hits; };
    Fn b = std::move(a);
    EXPECT_FALSE(static_cast<bool>(a));
    ASSERT_TRUE(static_cast<bool>(b));
    b();
    EXPECT_EQ(hits, 1);

    Fn c;
    c = std::move(b);
    EXPECT_FALSE(static_cast<bool>(b));
    c();
    EXPECT_EQ(hits, 2);
}

TEST(InplaceFunctionTest, ResetDestroysTheCapture)
{
    struct Probe {
        int* destroyed;
        explicit Probe(int* d) : destroyed(d) {}
        Probe(Probe&& o) noexcept : destroyed(o.destroyed)
        {
            o.destroyed = nullptr;
        }
        ~Probe()
        {
            if (destroyed)
                ++*destroyed;
        }
        void operator()() const {}
    };
    int destroyed = 0;
    {
        Fn fn{Probe(&destroyed)};
        EXPECT_EQ(destroyed, 0);
        fn.reset();
        EXPECT_EQ(destroyed, 1);
        EXPECT_FALSE(static_cast<bool>(fn));
    }
    // Destructor of an already-reset function must not double-destroy.
    EXPECT_EQ(destroyed, 1);
}

TEST(InplaceFunctionTest, MoveAssignReleasesThePreviousCallable)
{
    int first = 0;
    int second = 0;
    Fn fn = [&first] { ++first; };
    fn = Fn([&second] { ++second; });
    fn();
    EXPECT_EQ(first, 0);
    EXPECT_EQ(second, 1);
}

TEST(InplaceFunctionTest, CountedClosureIsDestroyedExactlyOnce)
{
    // Each live copy of the capture owns one "destruction"; a moved-
    // from husk owns none. Across any chain of moves, emplace and
    // reset, the capture must be destroyed exactly once.
    struct Counted {
        int* destroyed;
        int* calls;
        Counted(int* d, int* c) : destroyed(d), calls(c) {}
        Counted(Counted&& o) noexcept : destroyed(o.destroyed), calls(o.calls)
        {
            o.destroyed = nullptr;
        }
        ~Counted()
        {
            if (destroyed)
                ++*destroyed;
        }
        void operator()() const { ++*calls; }
    };
    static_assert(!std::is_trivially_copyable_v<Counted>);
    int destroyed = 0;
    int calls = 0;
    {
        Fn a{Counted(&destroyed, &calls)};
        Fn b = std::move(a);
        Fn c;
        c = std::move(b);
        c = std::move(c);  // self-move leaves it intact
        c();
        EXPECT_EQ(destroyed, 0);
        Fn d;
        d.emplace(Counted(&destroyed, &calls));
        d.emplace([] {});  // replacing destroys the previous capture
        EXPECT_EQ(destroyed, 1);
        c.reset();
        EXPECT_EQ(destroyed, 2);
        c.reset();
    }
    EXPECT_EQ(destroyed, 2);
    EXPECT_EQ(calls, 1);
}

TEST(InplaceFunctionTest, TriviallyCopyableClosureSurvivesRelocation)
{
    // Pointer-and-id captures relocate by memcpy; the relocated copy
    // must still see the original capture values.
    int hits = 0;
    const std::uint64_t id = 0x1234567890abcdefULL;
    std::uint64_t seen = 0;
    auto lambda = [&hits, &seen, id] {
        ++hits;
        seen = id;
    };
    static_assert(std::is_trivially_copyable_v<decltype(lambda)>);
    Fn a = lambda;
    Fn b = std::move(a);
    Fn c;
    c = std::move(b);
    EXPECT_FALSE(static_cast<bool>(a));
    EXPECT_FALSE(static_cast<bool>(b));
    // Vector growth relocates every element again.
    std::vector<Fn> many;
    many.push_back(std::move(c));
    for (int i = 0; i < 40; ++i)
        many.push_back(Fn([&hits] { ++hits; }));
    many.front()();
    EXPECT_EQ(hits, 1);
    EXPECT_EQ(seen, id);
    for (std::size_t i = 1; i < many.size(); ++i)
        many[i]();
    EXPECT_EQ(hits, 41);
}

TEST(InplaceFunctionTest, CapacityFitsHotPathCaptures)
{
    // The simulator's callbacks capture up to a few pointers plus an
    // integer id — well within the 64-byte budget.
    struct Big {
        std::uint64_t a[6];
    };
    Big big{};
    big.a[5] = 17;
    std::uint64_t got = 0;
    Fn fn = [big, &got] { got = big.a[5]; };
    fn();
    EXPECT_EQ(got, 17u);
    static_assert(sizeof(Fn) <= 64 + 2 * sizeof(void*) + alignof(std::max_align_t),
                  "InplaceFunction should stay pointer-sized overhead");
}

}  // namespace
}  // namespace proteus
