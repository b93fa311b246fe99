package main

import "os"

// Example runs the program on 13 cities and pins what it prints.  The
// default 14 cities take four times as long, and their paper-scale
// search is pinned by internal/harness's paper-tsp and paper-seq sets.
func Example() {
	os.Args = append(os.Args, "-cities", "13")
	main()
	// Output:
	// TSP: 13 cities, threshold 9, sequential 5.28s
	//
	//  procs   TreadMarks (sp/msgs/faults)    PVM master-slave (sp/msgs)
	//      1        0.99        0        0           0.94     1043   lock-wait    0%
	//      2        1.53     4119     1588           1.88     1046   lock-wait    5%
	//      4        2.52     5195     1936           3.72     1051   lock-wait   18%
	//      8        2.91     5652     2080           7.31     1062   lock-wait   51%
	//
	// All versions find the same optimum; the TreadMarks version
	// pays page faults and diff accumulation every time the shared
	// tour structures migrate to another processor.
}
