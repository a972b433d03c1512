/**
 * @file
 * Unit tests for Simulation / SimObject lifecycle.
 */

#include <gtest/gtest.h>

#include "sim/simulation.hh"

using namespace ena;

namespace {

class Widget : public SimObject
{
  public:
    Widget(Simulation &sim, const std::string &name, int fire_at)
        : SimObject(sim, name), fireAt_(fire_at),
          ev_([this] { fired = true; })
    {}

    void
    startup() override
    {
        started = true;
        schedule(ev_, static_cast<Tick>(fireAt_));
    }

    bool started = false;
    bool fired = false;

  private:
    int fireAt_;
    Event ev_;
};

} // anonymous namespace

TEST(Simulation, CreateAndRun)
{
    Simulation sim;
    auto *w = sim.create<Widget>("w0", 100);
    EXPECT_EQ(w->name(), "w0");
    sim.run();
    EXPECT_TRUE(w->started);
    EXPECT_TRUE(w->fired);
    EXPECT_EQ(sim.curTick(), 100u);
}

TEST(Simulation, InitAllIsIdempotent)
{
    Simulation sim;
    auto *w = sim.create<Widget>("w0", 5);
    sim.initAll();
    sim.initAll();
    sim.run();
    EXPECT_TRUE(w->fired);
}

TEST(Simulation, MultipleObjectsShareQueue)
{
    Simulation sim;
    auto *a = sim.create<Widget>("a", 10);
    auto *b = sim.create<Widget>("b", 20);
    sim.run();
    EXPECT_TRUE(a->fired);
    EXPECT_TRUE(b->fired);
    EXPECT_EQ(sim.curTick(), 20u);
}

TEST(Simulation, RunWithLimit)
{
    Simulation sim;
    auto *a = sim.create<Widget>("a", 10);
    auto *b = sim.create<Widget>("b", 1000);
    sim.run(100);
    EXPECT_TRUE(a->fired);
    EXPECT_FALSE(b->fired);
}

TEST(SimulationDeathTest, EmptyNamePanics)
{
    Simulation sim;
    EXPECT_DEATH(sim.create<Widget>("", 1), "requires a name");
}
