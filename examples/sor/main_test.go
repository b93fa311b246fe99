package main

// Example runs the program and pins what it prints.
func Example() {
	main()
	// Output:
	// SOR-Zero (512x1536, 10 sweeps): sequential 9.21s
	//  procs  TreadMarks (sp/msgs/KB)        PVM (sp/msgs/KB)
	//      1     0.97      0       0     1.00      0       0
	//      2     1.94     96      11     2.00     21     127
	//      4     3.77    288      30     3.90     63     375
	//      8     7.37    672      87     7.74    147     868
	//
	// SOR-Nonzero (512x1536, 10 sweeps): sequential 3.13s
	//  procs  TreadMarks (sp/msgs/KB)        PVM (sp/msgs/KB)
	//      1     0.93      0       0     1.00      0       0
	//      2     1.82     96     157     1.99     21     127
	//      4     3.48    288     469     3.90     63     375
	//      8     6.48    672    1111     7.62    147     868
	//
	// Note how SOR-Zero's TreadMarks column ships *less* data than
	// PVM (diffs of mostly-zero pages are tiny) while still sending
	// about five times as many messages (barrier + diff requests).
}
