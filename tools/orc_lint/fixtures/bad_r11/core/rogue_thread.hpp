// R11 fixture: raw std::thread in an engine file. The member declaration and
// the spawn site must both fire; std::this_thread (a different token) and the
// justified suppression must stay silent.
#pragma once

#include <thread>

namespace fixture {

struct RogueScanner {
    std::thread worker;  // fires: a thread lifecycle hidden from the domain dtor

    void start() {
        worker = std::thread([] {});  // fires: spawn site in engine code
        std::this_thread::yield();    // silent: not a thread spawn
    }

    // orc-lint: allow(R11) test double; joined in stop()
    std::thread spare;
};

}  // namespace fixture
